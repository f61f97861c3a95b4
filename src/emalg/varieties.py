"""Pseudo-variety operations: division, canonical covers over a sort set, and
bounded membership in a generatively-described pseudo-variety.

Division (being a quotient of a subalgebra) is decided by searching for a
generating tuple in the ambient algebra whose product closure, paired with a
generating tuple of the candidate, yields the graph of a surjective monotone
morphism.  Searches are bounded and a blown bound is reported as an explicit
"unknown", never as a verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .algebra import (
    FinAlgebra,
    Morphism,
    Recognizer,
    eval_element,
    generated_tuples,
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
    upward_closure,
)
from .monads import Word
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
        pairs = generated_tuples([self.ambient, self.candidate], self.seed_pairs)
        if frozenset(pairs) != self.graph:
            return False
        for b1, a1 in pairs:
            for b2, a2 in pairs:
                if self.ambient.carrier.leq(b1, b2) and not self.candidate.carrier.leq(
                    a1, a2
                ):
                    return False
        seconds = {a for _, a in pairs}
        return all(a in seconds for a in self.candidate.carrier)


def generating_sets(alg: FinAlgebra, max_size: Optional[int] = None):
    """Generating subsets of the carrier in increasing size, smallest first."""
    elems = sorted(alg.carrier, key=repr)
    n = len(elems)
    cap = n if max_size is None else min(n, max_size)
    full = set(elems)
    for k in range(1, cap + 1):
        for combo in itertools.combinations(elems, k):
            sub = subalgebra_generated(alg, combo)
            if set(sub.algebra.carrier) == full:
                yield combo


def divides(
    A: FinAlgebra, B: FinAlgebra, *, max_steps: int = 200_000
) -> tuple[bool, Optional[DividesWitness]]:
    """Whether A is a quotient of a subalgebra of B.

    Searches assignments of a generating tuple of A to same-sorted elements
    of B; an assignment works iff the closure of the element pairs is a
    monotone function from B-side to A-side.  Raises SearchBoundExceeded
    when the candidate space times the closure cost passes the budget.
    """
    if A.kind != B.kind:
        raise ValueError("division only relates algebras of one instance")
    # one minimal generating set suffices: any surjection onto A hits a
    # preimage of each generator, so the candidate tuples range over all of
    # them anyway
    gens = next(generating_sets(A), ())
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
    for bs in itertools.product(*pools):
        seeds = list(zip(bs, gens))
        pairs = generated_tuples([B, A], seeds)
        ok = True
        for b1, a1 in pairs:
            if not ok:
                break
            for b2, a2 in pairs:
                if B.carrier.leq(b1, b2) and not A.carrier.leq(a1, a2):
                    ok = False
                    break
        if ok:
            witness = DividesWitness(B, A, seeds, frozenset(pairs))
            return True, witness
    return False, None


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
    the product which maps onto the restriction of A.  The factorisation is
    guaranteed; a failure here is a bug and raises.
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
    closed = generated_tuples(syn_algs, list(letter_tuples.values()))
    cover = tuple_algebra(syn_algs, sorted(closed, key=repr))

    # factor the product of A through the cover on the restricted sorts
    graph = generated_tuples(
        syn_algs + [A], [letter_tuples[c] + (c,) for c in gens]
    )
    mapping: dict = {}
    for t in graph:
        key, val = t[:-1], t[-1]
        if A.carrier.sort_of(val) not in ds:
            continue
        if key in mapping and mapping[key] != val:
            raise NoFactorisation(
                (key, val), "cover pairing is not functional; bug"
            )
        mapping[key] = val
    cover_d = restrict_sorts(cover, ds)
    base_d = restrict_sorts(A, ds)
    for x in cover_d.carrier:
        if x not in mapping:
            raise NoFactorisation((x, None), "cover element without image; bug")
    fn = SortedFunction(cover_d.carrier, base_d.carrier, {
        x: mapping[x] for x in cover_d.carrier
    })
    if not fn.is_surjective():
        raise NoFactorisation((None, None), "cover map is not surjective; bug")
    if not is_morphism(fn, cover_d, base_d):
        raise NoFactorisation((None, None), "cover map is not a morphism; bug")
    mu = Morphism(cover_d, base_d, fn)
    return CanonicalCover(A, ds, components, cover, mu, letter_tuples)


def verify_cover_evaluation(cov: CanonicalCover, words: Iterable) -> bool:
    """mu after the pairing evaluation equals the plain product evaluation,
    checked on given free elements over the generators (word kind)."""
    A = cov.base
    if A.kind != "word":
        raise NotImplementedError("evaluation replay implemented for words")
    ident = {e: e for e in A.carrier}
    for w in words:
        w = w if isinstance(w, Word) else Word(tuple(w))
        paired = eval_element(cov.cover, cov.letter_tuples, w)
        if cov.mu(paired) != eval_element(A, ident, w):
            return False
    return True


# -- bounded generated membership ------------------------------------------------------


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
            factors = [gens[i] for i in combo]
            P = factors[0] if len(factors) == 1 else product(factors)
            try:
                ok, wit = divides(A, P, max_steps=max_steps)
            except SearchBoundExceeded:
                unknown = True
                continue
            if ok:
                return True, wit
    return (None, None) if unknown else (False, None)
