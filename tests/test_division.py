"""The division search against the search that closes every candidate to
the end (``tests/_reference.py``), the lazy product closure against the
eager one and against ``_closure``, and division between tree algebras
with bare-slot entries."""

import itertools

from emalg.algebra import (
    VAR,
    FinAlgebra,
    _closure,
    _grow_tuples,
    _places,
    generated_tuples,
    product,
    word_algebra,
)
from emalg.core import SortedOrderedSet
from emalg.lawsuite import small_semigroups
from emalg.varieties import SearchBoundExceeded, divides, generating_sets
from tests import _reference
from tests.test_algebra import bool_tree_algebra
from tests.test_algebra_tables import _closure_cases


def _u1():
    return word_algebra(
        SortedOrderedSet({0: [0, 1]}), {(x, y): min(x, y) for x in (0, 1) for y in (0, 1)}
    )


def _division(A, B, **kw):
    try:
        ok, wit = divides(A, B, **kw)
    except SearchBoundExceeded as exc:
        return str(exc)
    if wit is None:
        return ok, None, None
    return ok, wit.seed_pairs, wit.graph


def test_divides_equals_the_reference_on_the_corpus():
    """Every ordered pair of the small semigroups, and each of them into
    U1, U1 x U1 and a product of two corpus members: 1,188 searches."""
    corpus = small_semigroups()
    u1 = _u1()
    ambients = corpus + [u1, product([u1, u1]), product([corpus[1], corpus[2]])]
    found = 0
    for A in corpus:
        for B in ambients:
            got = _division(A, B)
            assert got == _reference.divides(A, B), (A, B)
            found += got[0] is True
    assert len(corpus) * len(ambients) == 1188
    assert found == 122
    big = corpus[-1]
    assert _division(big, product([big, big]), max_steps=10) == _reference.divides(
        big, product([big, big]), max_steps=10
    )


def test_generated_tuples_equals_the_eager_reference():
    for algs, seeds in _closure_cases():
        assert generated_tuples(algs, seeds) == _reference.generated_tuples(algs, seeds)
        triple = algs + algs[:1]
        tseeds = [s + (s[0],) for s in seeds]
        assert generated_tuples(triple, tseeds) == _reference.generated_tuples(triple, tseeds)


def test_grow_tuples_yields_each_tuple_once_seeds_first():
    tv = bool_tree_algebra(with_var_slots=True)
    cases = list(_closure_cases())
    cases.append(([tv, tv], [(x, x) for x in [(0, False), (2, False), (0, True)]]))
    for algs, seeds in cases:
        seeds = seeds + seeds[:1]  # a repeated seed is yielded once
        grown = list(_grow_tuples(algs, seeds))
        assert len(grown) == len(set(grown))
        firsts = list(dict.fromkeys(map(tuple, seeds)))
        assert grown[: len(firsts)] == firsts
        assert set(grown) == generated_tuples(algs, seeds)


def test_tree_division_witnesses_verify():
    """A bare slot of the candidate is filled in the closure, and a graph
    that misses an element of the candidate is no division.  The bare-slot
    entries of ``tv`` agree with its full entries, so ``t`` and ``tv`` are
    one algebra and each divides the other."""
    t = bool_tree_algebra(2)
    tv = bool_tree_algebra(2, with_var_slots=True)
    for A, B in itertools.product((t, tv), repeat=2):
        ok, wit = divides(A, B)
        assert ok and wit.verify(), (A, B)
        assert {a for _, a in wit.graph} == set(A.carrier)
        assert set(wit.graph) == {(e, e) for e in A.carrier}
        # found from A's generating tuple under B's shapes, not the carrier
        assert len(wit.seed_pairs) == len(next(generating_sets(A, places=_places(B)))) < 6


def test_division_into_partial_bare_slot_entries():
    """Without the entries that make (1, False) from (2, False) and a bare
    slot, no assignment of tv's first generating tuple reaches all of tv;
    the search over the whole carrier still finds the division."""
    tv = bool_tree_algebra(2, with_var_slots=True)
    f1, f2 = (1, False), (2, False)
    comp = {k: v for k, v in tv.comp.items() if not (k[0] == f2 and VAR in k[1] and v == f1)}
    assert len(comp) == len(tv.comp) - 2
    B = FinAlgebra(tv.monad, tv.carrier, comp=comp)
    ok, wit = divides(tv, B)
    assert ok and wit.verify()
    assert [a for _, a in wit.seed_pairs] == sorted(tv.carrier, key=repr)


def test_generating_sets_agree_with_the_witness_closure():
    """By default a set generates iff ``_closure``, which uses the bare-slot
    entries on its own, reaches the whole carrier."""
    t = bool_tree_algebra(2)
    tv = bool_tree_algebra(2, with_var_slots=True)
    for alg in [t, tv] + small_semigroups()[:12]:
        elems = sorted(alg.carrier, key=repr)
        expected = [
            c
            for k in range(1, 4)
            for c in itertools.combinations(elems, k)
            if _closure(alg, {g: alg.monad.sing(g, alg.carrier.sort_of(g)) for g in c}).keys()
            == set(elems)
        ]
        small = itertools.takewhile(lambda c: len(c) <= 3, generating_sets(alg))
        assert list(small) == expected
    # t has no bare-slot entry, so under its shapes tv needs a sort-1 generator
    assert next(generating_sets(tv)) == ((0, False), (0, True), (2, False))
    assert next(generating_sets(tv, places=_places(t))) == (
        (0, False), (0, True), (1, False), (2, False)
    )


def test_bare_slots_are_filled_in_every_component():
    """The closure of diagonal seeds in [tv, tv] is the diagonal over the
    elements that ``_closure`` reaches from the seeds."""
    tv = bool_tree_algebra(2, with_var_slots=True)
    sing, sort_of = tv.monad.sing, tv.carrier.sort_of
    for k in range(1, 4):
        for gens in itertools.combinations(sorted(tv.carrier, key=repr), k):
            reached = _closure(tv, {g: sing(g, sort_of(g)) for g in gens}).keys()
            got = generated_tuples([tv, tv], [(g, g) for g in gens])
            assert got == {(e, e) for e in reached}, gens
