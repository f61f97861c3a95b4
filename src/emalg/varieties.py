"""Pseudo-variety operations: division, canonical covers over a sort set, and
bounded membership in a generatively-described pseudo-variety.

Division (being a quotient of a subalgebra) is decided by searching for a
generating tuple in the ambient algebra whose product closure, paired with a
generating tuple of the candidate, yields the graph of a surjective monotone
morphism.  The search runs on element indices: each closure grows in the
product-closure kernel ``algebra._index_closure``, its graph is an array of
candidate indices indexed by the ambient elements, and monotonicity reads
the up-set bitmask rows of both carriers.  The assignments are tried in
``itertools.product`` order, depth first: the closure of an assignment of
the first generators is grown once, and each assignment of the next one
grows on from it.  A closure is rejected at its first conflict: an ambient
element paired with two candidate elements.  Such a graph is not a
function, and it is not monotone either (b <= b would need a1 <= a2 <= a1,
so a1 = a2 by antisymmetry); the closure of every assignment that extends
it holds the same conflict, so dropping them all never changes a verdict or
the first witness.  Searches are bounded and a blown bound is reported as
an explicit "unknown", never as a verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .algebra import (
    FinAlgebra,
    Morphism,
    Recognizer,
    _closure_map,
    _index_closure,
    _per_algebra,
    _places,
    eval_element,
    is_morphism,
    product,
    restrict_sorts,
    subalgebra_generated,
    tuple_algebra,
)
from .core import (
    NoFactorisation,
    Sort,
    SortedFunction,
    SortedOrderedSet,
    _unordered,
    upward_closure,
)
from .syntactic import syntactic_algebra


class SearchBoundExceeded(RuntimeError):
    """The division search ran out of budget; the verdict is unknown."""


@dataclass
class DividesWitness:
    """Re-checkable evidence that A divides B: seed pairs in B x A whose
    product closure is the graph of a surjection from a subalgebra of B."""

    ambient: FinAlgebra
    candidate: FinAlgebra
    seed_pairs: list
    graph: frozenset

    def verify(self) -> bool:
        B, A = self.ambient.carrier, self.candidate.carrier
        graph, clashes = _closure_map([self.ambient, self.candidate], self.seed_pairs)
        if clashes or {(b, a) for (b,), a in graph.items()} != self.graph:
            return False
        image = [A._index[graph[(b,)]] if (b,) in graph else None for b in B]
        return _unordered(B._rows, A._rows, image) is None and len(set(graph.values())) == len(A)


def generating_sets(alg: FinAlgebra, places: Optional[list] = None):
    """Generating subsets of the carrier in increasing size, smallest first.

    ``places`` (as ``algebra._places`` lists them) limits the closure to the
    entries of those shapes; by default every entry of ``alg`` counts."""
    elems = sorted(alg.carrier, key=repr)
    n = len(elems)
    if places is None:
        places = _places(alg)
    grow = _index_closure([alg], places)
    index = alg.carrier._index
    for k in range(1, n + 1):
        for combo in itertools.combinations(elems, k):
            if sum(1 for _ in grow([(index[g],) for g in combo])) == n:
                yield combo


def divides(
    A: FinAlgebra, B: FinAlgebra, *, max_steps: int = 200_000
) -> tuple[bool, Optional[DividesWitness]]:
    """Whether A is a quotient of a subalgebra of B.

    Searches assignments of a generating tuple of A to same-sorted elements
    of B; an assignment works iff the closure of the element pairs is a
    monotone function from B-side onto A.  The closure is grown pair by pair
    and an assignment is dropped at the first B-element that meets a second
    A-element: that graph is no function, and the monotonicity test would
    reject it too, since b <= b and the order of A is antisymmetric.  Raises
    SearchBoundExceeded when the candidate space times the closure cost
    passes the budget.

    The closure runs over B's entry shapes, so A's generating tuple is
    chosen under them: preimages of the generators in a division graph then
    close inside it, onto A, and one tuple suffices.  Where B lacks some
    entry with a bare slot, that closure can fall short of A; if a monotone
    function graph did, the search is run again with every element of A as
    a generator.
    """
    if A.kind != B.kind:
        raise ValueError("division only relates algebras of one instance")
    places = tuple(_places(B))
    gens = _generating_tuple(A, places)
    witness, short = _first_division(A, B, gens, places, max_steps)
    if witness is None and short:
        everything = tuple(sorted(A.carrier, key=repr))
        witness, _ = _first_division(A, B, everything, places, max_steps)
    return witness is not None, witness


@_per_algebra
def _generating_tuple(A: FinAlgebra, places: tuple) -> tuple:
    """A's first generating tuple under ``places`` (``generating_sets``),
    memoised on A by the places: ``generated_membership`` tries one
    product after another, and products of one instance mostly share their
    places."""
    return next(generating_sets(A, places=list(places)), ())


def _first_division(A, B, gens, places, max_steps):
    """The first assignment of ``gens`` to B, in ``itertools.product``
    order, whose closure is a monotone function onto A, as a witness or
    None; and whether some closure was a monotone function short of onto.
    Only assignments whose closures are functions are visited (see the
    module docstring)."""
    pools = [B.carrier.elements(A.carrier.sort_of(g)) for g in gens]
    n_candidates = 1
    for p in pools:
        n_candidates *= max(1, len(p))
    budget = n_candidates * max(1, len(A.carrier) * len(B.carrier))
    if budget > max_steps:
        raise SearchBoundExceeded(
            f"{n_candidates} assignments over carriers of sizes "
            f"{len(B.carrier)}x{len(A.carrier)} exceed the budget {max_steps}"
        )
    grow = _index_closure([B, A], places)
    b_elems, b_up, b_index = B.carrier._by_index, B.carrier._rows, B.carrier._index
    a_elems, a_up, a_index = A.carrier._by_index, A.carrier._rows, A.carrier._index
    a_gens = [a_index[g] for g in gens]
    pools = [[b_index[b] for b in pool] for pool in pools]

    def extend(closed: list, image: list, seed: tuple) -> Optional[tuple]:
        """The closure ``closed`` (pairs of indices in B and A) and its
        graph ``image`` grown by one seed pair, or None at the first
        B-element with two images; every pair the kernel yields is new, so
        a B-element that has an image already gets a second one."""
        closed, image = closed + [], image.copy()
        for t in grow([seed], closed):
            b, a = t
            if image[b] is not None:
                return None
            image[b] = a
            closed.append(t)
        return closed, image

    def assignments(d: int, bs: tuple, closed: list, image: list):
        """The assignments of the generators from d on that extend ``bs``
        and whose closures are functions, in product order, each with its
        graph; ``closed`` is the closure of ``bs`` and ``image`` its graph."""
        if d == len(pools):
            yield bs, image
            return
        a = a_gens[d]
        for b in pools[d]:
            if image[b] is None:
                grown = extend(closed, image, (b, a))
                if grown is not None:
                    yield from assignments(d + 1, bs + (b,), *grown)
            elif image[b] == a:  # the seed is in the closure already
                yield from assignments(d + 1, bs + (b,), closed, image)

    short = False
    for bs, image in assignments(0, (), [], [None] * len(b_elems)):
        if _unordered(b_up, a_up, image) is None:
            if len(set(image) - {None}) == len(a_elems):
                seeds = [(b_elems[b], g) for b, g in zip(bs, gens)]
                graph = frozenset((b_elems[b], a_elems[a]) for b, a in enumerate(image) if a is not None)
                return DividesWitness(B, A, seeds, graph), short
            short = True
    return None, short


# -- canonical covers ---------------------------------------------------------------


@dataclass
class CanonicalCover:
    """The cover of an algebra by the product of the syntactic algebras of
    its principal up-set languages over a sort restriction."""

    base: FinAlgebra
    sorts: tuple
    components: dict  # element a -> SyntacticResult of the language of a
    cover: FinAlgebra  # subalgebra of the product, generated by letter tuples
    mu: Morphism  # cover restricted to the sorts, onto base restricted
    letter_tuples: dict  # generator element -> its tuple in the cover


def canonical_cover(A: FinAlgebra, delta: Optional[Iterable[Sort]] = None) -> CanonicalCover:
    """Build the canonical cover of A over the sort set delta.

    For each element a of the restriction, the language of products landing
    at or above a (over the restricted generators) has a syntactic algebra;
    the pairing of all their syntactic morphisms generates a subalgebra of
    the product which maps onto the restriction of A, read off the closure
    of the letters' tuples (``algebra._closure_map``).  The factorisation
    is guaranteed: each failed check of the map is a bug and raises
    NoFactorisation.
    """
    ds = tuple(sorted(delta)) if delta is not None else tuple(A.carrier.sorts)
    gens = [e for s in ds for e in A.carrier.elements(s)]
    sub = subalgebra_generated(A, gens)
    if set(sub.algebra.carrier) != set(A.carrier):
        raise ValueError("the restriction does not generate the algebra")

    alphabet = SortedOrderedSet({s: A.carrier.elements(s) for s in ds})
    assignment = {e: e for e in gens}
    components: dict = {}
    for a in gens:
        rec = Recognizer(alphabet, A, assignment, upward_closure(A.carrier, {a}))
        components[a] = syntactic_algebra(rec)

    order = list(components)
    syn_algs = [components[a].syn_algebra for a in order]
    letter_tuples = {
        c: tuple(components[a].letter_map[c] for a in order) for c in gens
    }
    # the cover is the projection of the graph: projection is a morphism,
    # and every component's entry places are A's
    graph, clashes = _closure_map(syn_algs + [A], [letter_tuples[c] + (c,) for c in gens])
    cover = tuple_algebra(syn_algs, sorted(graph, key=repr))

    # factor the product of A through the cover on the restricted sorts: the
    # cover's elements are the graph's keys, each tuple in one sort, so the
    # map is total and keeps sorts
    for key in clashes:
        if A.carrier.sort_of(graph[key]) in ds:
            raise NoFactorisation((key, key), "cover pairing is not functional; bug")
    cover_d = restrict_sorts(cover, ds)
    base_d = restrict_sorts(A, ds)
    C, D = cover_d.carrier, base_d.carrier
    image = [D._index[graph[x]] for x in C]
    if bad := _unordered(C._rows, D._rows, image):
        raise NoFactorisation(tuple(map(C._by_index.__getitem__, bad)), "cover map is not monotone; bug")
    fn = SortedFunction._unchecked(C, D, image)
    if not fn.is_surjective():
        raise NoFactorisation((None, None), "cover map is not surjective; bug")
    if not is_morphism(fn, cover_d, base_d):
        raise NoFactorisation((None, None), "cover map is not a morphism; bug")
    mu = Morphism(cover_d, base_d, fn)
    return CanonicalCover(A, ds, components, cover, mu, letter_tuples)


def verify_cover_evaluation(cov: CanonicalCover, elements: Iterable) -> bool:
    """mu after the pairing evaluation equals the plain product evaluation,
    checked on given free elements over the generators, of any instance,
    whose values lie in the sorts of the cover."""
    ident = {e: e for e in cov.base.carrier}
    for t in elements:
        paired = eval_element(cov.cover, cov.letter_tuples, t)
        if cov.mu(paired) != eval_element(cov.base, ident, t):
            return False
    return True


# -- bounded generated membership ------------------------------------------------------


def _product(factors: tuple) -> FinAlgebra:
    """``product`` of the factors, built once for each tuple of them, so
    repeated calls with one generator list share their products."""
    return _product_after(factors[0], factors[1:])


@_per_algebra
def _product_after(first: FinAlgebra, rest: tuple) -> FinAlgebra:
    """``product`` of ``first`` and the algebras ``rest``, memoised on
    ``first`` by ``rest`` (an algebra hashes by identity, and its tables are
    read-only): it lives as long as ``first``.  Where ``first`` recurs in
    ``rest`` the memo refers back to it, and the cycle is left to the
    garbage collector."""
    return product([first, *rest])


def generated_membership(
    A: FinAlgebra,
    gens: list[FinAlgebra],
    *,
    max_product_arity: int = 3,
    max_steps: int = 200_000,
) -> tuple[Optional[bool], Optional[DividesWitness]]:
    """Search for a division of A into a finite product of the generators
    (with repetition, up to the arity bound).

    Returns (True, witness), (False, None) when the bounded search is
    exhaustive, or (None, None) when some division search blew its budget,
    i.e. the verdict is unknown.
    """
    unknown = False
    for k in range(1, max_product_arity + 1):
        for combo in itertools.combinations_with_replacement(range(len(gens)), k):
            P = gens[combo[0]] if k == 1 else _product(tuple(gens[i] for i in combo))
            try:
                ok, wit = divides(A, P, max_steps=max_steps)
            except SearchBoundExceeded:
                unknown = True
                continue
            if ok:
                return True, wit
    return (None, None) if unknown else (False, None)
