"""Contexts, context-function saturation, syntactic preorders and algebras.

A context is an element of the free algebra over the carrier with exactly
one label ``HOLE`` (Bojanczyk, "Recognisable languages over monads"): a
``Word``, an omega-word (``Word``, ``UPWord`` or ``MixedWord``) or a
``Tree``, so a finite omega context is the same ``Word`` as a word context.
Applying it to a gives a unary polynomial map: ``eval_element`` on it, the
hole labelled a and every other label standing for itself.  It prints as
``serialize`` of itself.  Composing two contexts is the monad's
multiplication: ``flat`` of the outer one with the hole labelled by the
inner one and every other label by its singleton, so ``flat`` also rejects
an inner context whose result sort is not the hole's.  The identity
context is the singleton hole, and a one-step context is the shallow term
of an op over its fixed arguments and the hole.

The defining preorder of a language quantifies over infinitely many
contexts, but it is also the greatest relation that lies inside "a in P
implies b in P" on the accepting sort and is closed under the one-step
context functions.  It is computed by refinement, as simulations are
computed: a backward breadth-first search over pairs from the pairs that P
itself separates, so each separated pair also records the length of its
shortest separating context.  ``syntactic_preorder`` searches over the
steps that multiply by generators, which suffice in a generated algebra,
and ``syntactic_algebra`` certifies the result.  ``decompose_as_derivatives``
searches over the steps that multiply by a letter's image on either side
(the letter images generate the image algebra) and walks each pair down
the layers, so its contexts are the shortest over the alphabet.  When the
generators ``syntactic_preorder`` found are the letter images, in order,
the two searches are one, and the preorder keeps its layers for it.  The
search reads each step as int arrays over the carrier's numbering, each
distinct table once; only ``decompose_as_derivatives`` builds the steps'
witness contexts, since it is the one that prints contexts.

Saturation (``saturate_all``) is kept only as the definition the refinement
is tested against: the finite set of context *functions*, the closure of
the identities under post-composition with one-step functions, keeping for
each function the first (shortest) context that produced it.  Determinism
matters: the fixed BFS orders make witnesses reproducible, and over every
element step the context walked down the pair layers is the one saturation
would list first.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import (
    Elem,
    NoFactorisation,
    Preorder,
    Sort,
    SortedFunction,
    SortedOrderedSet,
    _members,
    _unordered,
    is_upward_closed,
)
from .algebra import (
    _TERM,
    FinAlgebra,
    GeneratedSubalgebra,
    Morphism,
    NotCongruence,
    Recognizer,
    _closure_map,
    _columns,
    _fold,
    _generators,
    _per_algebra,
    _sort_runs,
    generated_tuples,
    quotient_algebra,
    subalgebra_generated,
)
from .monads import HOLE, FreeElement, Monad, Word, serialize

# -- contexts ----------------------------------------------------------------------


Context = FreeElement  # with one HOLE label


def context_to_str(ctx: Context, name=str) -> str:
    return serialize(ctx, name)


def context_compose(monad: Monad, outer: Context, inner: Context) -> Context:
    """The context outer[inner]: apply inner first, then outer.  It is
    ``flat`` of outer with its hole labelled by inner and every other
    label by its singleton; ``element_sort`` rejects a context of another
    instance's shape."""
    monad.element_sort(outer)
    monad.element_sort(inner)
    return monad.flat(monad.map(lambda a, s: inner if a is HOLE else monad.sing(a, s), outer))


def identity_context(monad: Monad, sort: Sort) -> Context:
    """The context of the singleton hole at ``sort``."""
    return monad.sing(HOLE, sort)


# -- saturation -------------------------------------------------------------------


@dataclass
class ContextFunction:
    """A tabulated unary map induced by some context, with the shortest
    witness context found for it."""

    source_sort: Sort
    target_sort: Sort
    table: dict
    witness: Context

    def __call__(self, a: Elem) -> Elem:
        return self.table[a]

    def key(self, carrier: SortedOrderedSet):
        return (
            self.source_sort,
            self.target_sort,
            tuple(self.table[e] for e in carrier.elements(self.source_sort)),
        )


def _step_columns(alg: FinAlgebra, generators: Optional[tuple]):
    """The one-step context functions of ``alg`` over the carrier's
    numbering, shape by shape: for each op of the monad's signature and
    each argument position i as the hole, (op, argument sorts, result
    sort, i, pools, columns).  ``pools[i]`` holds the indices of the hole
    sort, one run of the numbering, and each other pool the indices that
    argument is fixed to: every element of its sort, or only the
    ``generators`` at the monad's ``generated_sort`` when they are given.
    ``columns`` are read from the integer tables (``algebra._columns``):
    for each choice of the fixed arguments, in ``itertools.product`` order,
    the value indices at the hole's elements.  A column that is empty, or
    has a gap (None: an op with nowhere to land has no entries), is no
    step."""
    runs = _sort_runs(alg.carrier)
    pool = dict(runs)
    if generators is not None:
        pool[alg.monad.generated_sort] = [alg.carrier._index[g] for g in generators]
    for op, sorts, result in alg.monad.signature:
        for i, hole_sort in enumerate(sorts):
            pools = [pool.get(s, ()) for s in sorts]
            pools[i] = runs.get(hole_sort, ())
            yield op, sorts, result, i, pools, _columns(alg, op, sorts, i, pools)


@_per_algebra
def _witnessed_steps(alg: FinAlgebra, generators: Optional[tuple] = None) -> list[tuple]:
    """The one-step context functions with their witnesses, over the
    carrier's numbering, for the contexts that ``decompose_as_derivatives``
    prints and for the saturation definition: an op of the monad's
    signature with one argument position as the hole and elements of their
    sorts fixed in the others (``_step_columns``), mapping e to the op
    applied with e in the hole, whose witness is the op's shallow term over
    the fixed elements and the hole.  Each is (hole sort, result sort,
    values, witness), where ``values`` runs over the whole numbering: the
    index of the value at each element of the hole sort, None elsewhere.
    Sorted by hole sort, result sort and witness text, so the order does
    not depend on how the steps were found.  Memoised on the algebra
    (``_per_algebra``)."""
    elems, n = alg.carrier._by_index, len(alg.carrier)
    out = []
    for op, sorts, result, i, pools, columns in _step_columns(alg, generators):
        hole = pools[i]
        labels = [[elems[x] for x in pool] for pool in pools]
        labels[i] = (HOLE,)
        for fixed, values in zip(itertools.product(*labels), columns):
            if values and None not in values:
                full = [None] * n
                full[hole.start : hole.stop] = values
                out.append((sorts[i], result, full, _TERM[op](fixed, sorts)))
    out.sort(key=lambda step: (step[0], step[1], context_to_str(step[3], repr)))
    return out


@_per_algebra
def _one_step_functions(
    alg: FinAlgebra, generators: Optional[tuple] = None
) -> list[ContextFunction]:
    """The steps of ``_witnessed_steps`` as context functions over labels,
    in its order: each decodes its own table, over its hole sort.  With
    ``generators``, the generator steps.  The pair search itself runs over
    ``_step_arrays``, the same steps with no witness.  Memoised on the
    algebra (``_per_algebra``)."""
    elems = alg.carrier._by_index
    return [
        ContextFunction(
            source, target, {elems[i]: elems[v] for i, v in enumerate(values) if v is not None}, witness
        )
        for source, target, values, witness in _witnessed_steps(alg, generators)
    ]


@_per_algebra
def _step_arrays(alg: FinAlgebra, generators: Optional[tuple] = None) -> _StepArrays:
    """The steps of ``_one_step_functions`` over the carrier's numbering,
    each as a pair of int arrays: the indices of its hole sort, one run of
    the numbering, and the index of each one's value (``_step_columns``).
    No witness is built and nothing is sorted.  A step whose table repeats
    an earlier one's over the same hole sort is left out: ``_pair_depths``
    finds the same layers over any list of the same distinct tables, since
    a layer is the set of pairs that some step maps one layer down.
    Memoised on the algebra (``_per_algebra``), with the inverse tables
    that ``_pair_depths`` builds from the steps."""
    seen: set = set()
    out: list[tuple] = []
    for _, sorts, _, i, pools, columns in _step_columns(alg, generators):
        for values in columns:
            if values and None not in values:
                key = (sorts[i], tuple(values))
                if key not in seen:
                    seen.add(key)
                    out.append((pools[i], values))
    return _StepArrays(out, len(alg.carrier))


class _StepArrays(list):
    """Steps as ``_pair_depths`` takes them, over a numbering of ``n``
    elements, with the inverse tables it reads: for each element x, one
    (preimage of x scaled by n, inverse table of the step) per step that
    reaches x, in step order."""

    def __init__(self, steps, n: int):
        super().__init__(steps)
        self.n = n

    @functools.cached_property
    def preimages(self) -> list[list]:
        n = self.n
        preimages: list[list] = [[] for _ in range(n)]
        for sources, values in self:
            inverse: list[list] = [[] for _ in range(n)]
            for e, v in zip(sources, values):
                inverse[v].append(e)
            for x, pre in enumerate(inverse):
                if pre:
                    preimages[x].append(([i * n for i in pre], inverse))
        return preimages


@_per_algebra
def saturate_all(alg: FinAlgebra) -> dict[tuple[Sort, Sort], list[ContextFunction]]:
    """All context functions of the algebra, grouped by (source, target) sort
    pair, in deterministic BFS discovery order.  Memoised on the algebra
    (``_per_algebra``)."""
    A = alg.carrier
    steps = _one_step_functions(alg)
    by_source: dict[Sort, list[ContextFunction]] = {}
    for g in steps:
        by_source.setdefault(g.source_sort, []).append(g)
    found: dict = {}
    queue: list[ContextFunction] = []
    for s in A.sorts:
        ident = ContextFunction(
            s, s, {e: e for e in A.elements(s)}, identity_context(alg.monad, s)
        )
        found[ident.key(A)] = ident
        queue.append(ident)
    while queue:
        nxt: list[ContextFunction] = []
        for f in queue:
            for g in by_source.get(f.target_sort, ()):
                table = {e: g.table[f.table[e]] for e in f.table}
                h = ContextFunction(f.source_sort, g.target_sort, table, None)
                k = h.key(A)
                if k not in found:
                    h.witness = context_compose(alg.monad, g.witness, f.witness)
                    found[k] = h
                    nxt.append(h)
        queue = nxt
    grouped: dict[tuple[Sort, Sort], list[ContextFunction]] = {}
    for fn in found.values():
        grouped.setdefault((fn.source_sort, fn.target_sort), []).append(fn)
    return grouped


# -- syntactic preorder and algebra ------------------------------------------------


def _pair_depths(alg: FinAlgebra, P: frozenset, sort: Sort, steps: _StepArrays) -> list:
    """For each pair (a, b) of elements of the algebra, at index i * n + j
    for their indices i and j in the carrier's numbering, the length of
    the shortest composite of ``steps`` that separates it (sends a into
    ``P`` and b out of it), or -1 if none does.  The steps are a
    ``_StepArrays`` over that numbering, as ``_step_arrays`` gives them:
    each the indices it maps and the index of each one's value.

    A backward BFS over pairs: layer 0 is {(a, b) : a in P, b not in P} on
    ``sort``; layer L+1 holds the pairs not seen before that some step maps
    into layer L, found through the step's inverse table.  A step maps
    same-sort pairs to same-sort pairs, so only those are reached.  Over
    the element steps, the same-sort pairs never reached are exactly the
    syntactic preorder, the greatest relation inside "a in P implies b in
    P" closed under every step."""
    A = alg.carrier
    # the carrier's numbering of its elements; the pair (i, j) is the
    # integer i * n + j
    elems, index = A._by_index, A._index
    n = len(elems)
    preimages = steps.preimages
    depths = [-1] * (n * n)
    accepted, rejected = [], []  # the indices of the sort, one test each
    for e in A.elements(sort):
        (accepted if e in P else rejected).append(index[e])
    frontier = [i * n + j for i in accepted for j in rejected]
    for p in frontier:
        depths[p] = 0
    depth = 0
    while frontier:
        depth += 1
        found = []
        for p in frontier:
            x, y = divmod(p, n)
            for xs, inverse in preimages[x]:
                ys = inverse[y]
                if ys:
                    for a in xs:
                        for b in ys:
                            if depths[a + b] < 0:
                                depths[a + b] = depth
                                found.append(a + b)
        frontier = found
    return depths


class _LayeredPreorder(Preorder):
    """A syntactic preorder with the search that found it: the
    ``generators`` whose steps it ran over and the ``depths`` of
    ``_pair_depths``.  Its up-set rows are read off the depths: row i
    holds the j of i's sort with depth -1 at i * n + j.  They need no
    transitive closure, since the pairs that no composite of steps
    separates are transitive already: a composite that sends a into P and
    c out of it separates (a, b) or (b, c), whichever side b falls.
    ``decompose_as_derivatives`` reuses the depths when the generators are
    its letter images."""

    def __init__(self, carrier, depths, generators):
        self.carrier, self.generators, self.depths = carrier, generators, depths
        self._index, self._by_index = carrier._index, carrier._by_index
        n = len(self._by_index)
        self._rows = rows = []
        start = 0
        for s in carrier.sorts:
            stop = start + len(carrier.elements(s))
            for i in range(start, stop):
                row, at = 0, i * n
                for j in range(start, stop):
                    if depths[at + j] < 0:
                        row |= 1 << j
                rows.append(row)
            start = stop


def syntactic_preorder(alg: FinAlgebra, accepting: Iterable[Elem], sort: Sort) -> Preorder:
    """a <= b iff every context that sends a into the accepting set also
    sends b there: the same-sort pairs that ``_pair_depths`` never reaches
    over the generator steps of the generators ``_generators`` finds in
    ``alg``.

    The preorder is the greatest relation inside "a in P implies b in P" on
    ``sort`` that is closed under every one-step context function.  When
    the monad declares a ``generated_sort`` (words: the one sort under
    mult; omega-words: the finite sort under dot), a step may fix an
    argument of that sort to a generator only.  By induction on the length
    of a product c = g1 ... gk of generators: by associativity c.x is
    g1.(g2 ... gk.x) and x.c is (x.g1 ... gk-1).gk, and since mix is an
    action, mix(c, e) is mix(g1, mix(g2 ... gk, e)); so the step that
    fixes c is a composite of generator steps, and a relation closed under
    these is closed under it.  The other steps keep every element: the
    omega power omega(_), which fixes nothing, and mix(_, e) for every
    infinite e.  Trees keep the element steps.  Words need 2|gens| steps
    instead of 2n.

    The steps are ``_step_arrays``: int arrays over the carrier's
    numbering, each distinct table once per hole sort, with no witness and
    no order (on the mod-5 tree recognizer of the benchmark, 480 steps
    carry 45 distinct tables).  The rows of the result are read off the
    search's depths (``_LayeredPreorder``).

    ``syntactic_algebra`` certifies the result.  The generator steps are
    some of the element steps, so they separate no more pairs, and the
    pairs never reached form a relation R that contains the preorder.
    ``syntactic_algebra`` checks that R lies inside "a in P implies b in
    P", and ``quotient_algebra`` that it is compatible (closed under every
    element step); then R lies inside the greatest such relation, so R is
    the preorder.  The induction uses the monad's laws, which construction
    does not check: on tables that break them, or with a wrong generating
    set, ``syntactic_algebra`` raises ``NotCongruence`` and never returns a
    wrong algebra."""
    P = frozenset(accepting)
    if not is_upward_closed(alg.carrier, P):
        raise ValueError("accepting set is not upward closed")
    gens = _generators(alg)
    depths = _pair_depths(alg, P, sort, _step_arrays(alg, gens))
    return _LayeredPreorder(alg.carrier, depths, gens)


def _separating_context(alg: FinAlgebra, steps: list, path: tuple, sort: Sort) -> Context:
    """The composite of ``steps`` (``_witnessed_steps``) along ``path``
    (positions in ``steps``, first step first), as a context on ``sort``.
    This is the one place that builds contexts from steps."""
    ctx = identity_context(alg.monad, sort)
    for k in path:
        ctx = context_compose(alg.monad, steps[k][3], ctx)
    return ctx


def _separating_path(steps: list, depths: list, n: int, i: int, j: int) -> tuple:
    """A shortest sequence of ``steps`` that separates the pair of indices
    (i, j) over a numbering of ``n`` elements, as the positions in
    ``steps`` of the steps it takes, first step first.  ``depths`` is the
    depth array that ``_pair_depths`` finds over the same steps (or over
    their ``_step_arrays``, which hold the same distinct tables and so give
    the same depths), in which (i, j) is separated: from the pair's depth
    down to 0, the walk takes the first step whose image pair lies one
    layer closer.  So among the shortest separating step sequences it is
    the least in the lexicographic order of steps, first step most
    significant.

    ``decompose_as_derivatives`` walks the steps that multiply by a
    letter's image on one side, so its contexts are shortest over the
    alphabet.  Over every element step, the walk gives the first function
    in ``saturate_all``'s order that separates the pair, as the tests
    check: saturation finds functions by length, and within a length in
    the same lexicographic order.  It drops a sequence whose function an
    earlier sequence gave, and then every extension of it gives a function
    that the same extension of the earlier sequence gave before, so the
    first separating function it lists is the one of the least shortest
    separating sequence."""
    path = []
    depth = depths[i * n + j]
    while depth:
        depth -= 1
        # a step's values are None off its hole sort
        k = next(
            k
            for k, (_, _, values, _) in enumerate(steps)
            if values[i] is not None and depths[values[i] * n + values[j]] == depth
        )
        path.append(k)
        values = steps[k][2]
        i, j = values[i], values[j]
    return tuple(path)


@dataclass
class SyntacticResult:
    """The syntactic algebra of a recognized language, with the morphism from
    the recognizer's image algebra and everything needed to rebuild contexts
    over the original alphabet."""

    recognizer: Recognizer
    image: GeneratedSubalgebra
    preorder: Preorder
    syn_algebra: FinAlgebra
    syn_morphism: Morphism
    accepting: frozenset
    accepting_sort: Sort
    letter_map: dict = field(default_factory=dict)

    def syn_value(self, t) -> Elem:
        return self.syn_morphism(self.recognizer.value(t))

    def accepts(self, t) -> bool:
        return self.syn_value(t) in self.accepting

    def size(self) -> int:
        return len(self.syn_algebra.carrier)


def syntactic_algebra(rec: Recognizer) -> SyntacticResult:
    """Restrict to the image subalgebra, refine the syntactic preorder,
    quotient.

    The shallow-compatibility reduction is re-verified on every run; a
    failure would indicate an implementation bug and is surfaced loudly.

    Half of the work does not depend on the accepting set: the image
    subalgebra (``subalgebra_generated``), its generators and its step
    arrays.  It is memoised on the algebras themselves (``_per_algebra``),
    so recognizers that share an algebra and an assignment, as the up-sets
    of one algebra do, pay for it once; the search, its certificate and
    the quotient run for each accepting set.
    """
    # generators in assignment order, not a set's, so that the witnesses do
    # not depend on the hash seed
    sub = subalgebra_generated(rec.algebra, rec.assignment.values())
    B = sub.algebra
    P = frozenset(p for p in rec.accepting if p in B.carrier)
    pre = syntactic_preorder(B, P, rec.accepting_sort)
    # with the compatibility walk of ``quotient_algebra``, this certifies
    # the preorder (see ``syntactic_preorder``): no up-set row of an
    # accepted element leaves P's bitmask
    elems, index = B.carrier._by_index, B.carrier._index
    accepted = sum(1 << index[p] for p in P)
    for i in _members(accepted):
        outside = pre._rows[i] & ~accepted
        if outside:
            raise NotCongruence(
                (elems[i], elems[_members(outside)[0]]),
                "syntactic preorder relates an accepted element to a rejected "
                "one; this indicates a bug",
            )
    try:
        syn, qm = quotient_algebra(B, pre)
    except NotCongruence:
        raise NotCongruence(
            None,
            "syntactic preorder failed shallow compatibility; this breaks the "
            "finitary reduction and indicates a bug",
        ) from None
    accepting = frozenset(qm(x) for x in P)
    if not is_upward_closed(syn.carrier, accepting):
        raise NotCongruence(None, "image of the accepting set is not upward closed")
    letters = {c: qm(rec.assignment[c]) for c in rec.alphabet}
    return SyntacticResult(
        recognizer=rec,
        image=sub,
        preorder=pre,
        syn_algebra=syn,
        syn_morphism=qm,
        accepting=accepting,
        accepting_sort=rec.accepting_sort,
        letter_map=letters,
    )


def generated_pairs(A: FinAlgebra, B: FinAlgebra, seeds: Iterable[tuple]) -> set:
    """Closure of seed pairs under componentwise shallow products: the carrier
    of the subalgebra of A x B generated by the seeds, without materialising
    the product."""
    return generated_tuples([A, B], seeds)


def factor_to_syntactic(rec: Recognizer, syn: SyntacticResult) -> Morphism:
    """The unique morphism from the recognizer's algebra onto the syntactic
    algebra commuting with the two evaluation maps, read off the closure
    of the letters' pairs of values (``algebra._closure_map``).

    Requires the recognizer's evaluation to be surjective onto its algebra.
    Failure of the kernel inclusion raises NoFactorisation, which cannot
    happen for a recognizer of the same language.  Its witness is (a, a) for
    the first a, in the recognizer's numbering, that the closure pairs with
    two classes; else the first pair a <= a' whose classes are not in order.
    """
    R, S = rec.algebra.carrier, syn.syn_algebra.carrier
    seeds = [(rec.assignment[c], syn.letter_map[c]) for c in rec.alphabet if c in syn.letter_map]
    if len(seeds) < len(list(rec.alphabet)):
        raise ValueError("recognizers use different alphabets")
    graph, clashes = _closure_map([rec.algebra, syn.syn_algebra], seeds)
    if len(graph) < len(R):
        raise ValueError("recognizer evaluation is not surjective onto its algebra")
    if clashes:
        a = min((a for a, in clashes), key=R._index.__getitem__)
        raise NoFactorisation((a, a))
    image = [S._index[graph[(a,)]] for a in R]
    if bad := _unordered(R._rows, S._rows, image):
        raise NoFactorisation(tuple(map(R._by_index.__getitem__, bad)))
    return Morphism(rec.algebra, syn.syn_algebra, SortedFunction._unchecked(R, S, image))


# -- derivative decomposition --------------------------------------------------------


@dataclass
class DerivativeDecomposition:
    """A union-of-intersections of inverse context images: the language with
    image classes Q equals the union over a in Q of the words sent into the
    base language by every context paired with a non-member class."""

    syn: SyntacticResult
    target: frozenset
    clauses: list  # list of (class elem, list[word context over the alphabet])

    def __post_init__(self):
        # the recognizer's algebra over its numbering: its product (``_fold``),
        # each letter's value and the accepted elements; then each context's
        # parts left and right of the hole as values (a list of at most one),
        # so that a word is evaluated once and costs at most two table reads
        # per context
        rec = self.syn.recognizer
        index = rec.algebra.carrier._index
        self._product = functools.partial(_fold, rec.algebra)
        self._letter = {c: index[v] for c, v in rec.assignment.items()}
        self._accepted = {index[p] for p in rec.accepting}

        def part(labels: tuple) -> list:
            return [self._product([self._letter[c] for c in labels])] if labels else []

        def parts(ctx: Word) -> tuple:
            i = ctx.labels.index(HOLE)
            return part(ctx.labels[:i]), part(ctx.labels[i + 1 :])

        self._parts = [[parts(c) for c in ctxs] for _, ctxs in self.clauses]

    def matches(self, t) -> bool:
        """Whether, for some clause, each of its contexts with ``t`` plugged
        into the hole is accepted: left . t . right multiplied in the
        recognizer's algebra, t evaluated once."""
        rec = self.syn.recognizer
        return self._matches_value([rec.algebra.carrier._index[rec.value(t)]] if t.labels else [])

    def _matches_value(self, word: list) -> bool:
        """``matches`` for a word given by the index of its value in the
        recognizer's algebra, as a list of one index, or of none for the
        empty word."""
        product, accepted = self._product, self._accepted
        return any(
            all(product(left + word + right) in accepted for left, right in parts)
            for parts in self._parts
        )


def decompose_as_derivatives(syn: SyntacticResult, target: Iterable[Elem]) -> DerivativeDecomposition:
    """Express the language with syntactic image ``target`` as a finite
    union of intersections of context derivatives of the base language.

    The clause of a class a in ``target`` lists, for each class b outside
    it, a shortest context over the alphabet that sends a into the base
    language and b out of it, each context once.  The contexts are walked
    down the depth array of the pair search over the letter steps
    (``_separating_path``), from the first element of each class in the
    image algebra's numbering, and each new walk is composed once
    (``_separating_context``)."""
    if syn.recognizer.algebra.kind != "word":
        raise NotImplementedError(
            "alphabet-level derivative decompositions are implemented for "
            "word languages"
        )
    Q = frozenset(target)
    Syn = syn.syn_algebra
    sorts = {Syn.carrier.sort_of(x) for x in Q}
    if len(sorts) > 1:
        raise ValueError("target must sit inside one sort")
    zeta = next(iter(sorts)) if sorts else syn.accepting_sort
    if not is_upward_closed(Syn.carrier, Q):
        raise ValueError("target is not upward closed; not recognized by this quotient")
    complement = sorted((x for x in Syn.elements(zeta) if x not in Q), key=repr)

    B = syn.image.algebra
    elems, n = B.carrier._by_index, len(B.carrier)
    reps = {}  # each class -> the index of its first element
    for i, x in enumerate(elems):
        reps.setdefault(syn.syn_morphism(x), i)
    P = frozenset(p for p in syn.recognizer.accepting if p in B.carrier)
    # B is generated by the letter images, so their steps separate every
    # pair that some context separates (see ``syntactic_preorder``); each
    # image is read back as its first letter
    letter_of = {}
    for c in syn.recognizer.alphabet:
        letter_of.setdefault(syn.recognizer.assignment[c], c)
    letters, pre = tuple(letter_of), syn.preorder
    steps = _witnessed_steps(B, letters)
    if isinstance(pre, _LayeredPreorder) and pre.generators == letters:
        depths = pre.depths  # the same search, run once
    else:
        depths = _pair_depths(B, P, syn.accepting_sort, _step_arrays(B, letters))

    def over_letters(ctx: Word) -> Word:
        return Word(tuple([a if a is HOLE else letter_of[a] for a in ctx.labels]))

    clauses = []
    contexts: dict = {}  # each walk's step path -> its context over the letters, and its text
    for a in sorted(Q, key=repr):
        ctxs = []
        seen = set()
        for b in complement:
            i, j = reps[a], reps[b]
            if depths[i * n + j] < 0:
                raise NotCongruence((a, b), "no separating context; quotient broken")
            path = _separating_path(steps, depths, n, i, j)
            if path not in contexts:
                ctx = over_letters(_separating_context(B, steps, path, zeta))
                contexts[path] = ctx, context_to_str(ctx, repr)
            ctx, key = contexts[path]
            if key not in seen:
                seen.add(key)
                ctxs.append(ctx)
        clauses.append((a, ctxs))
    return DerivativeDecomposition(syn, Q, clauses)
