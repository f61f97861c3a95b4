"""The product-closure kernel over element indices (``algebra._index_closure``)
against the label-level closures of ``tests/_reference.py``, on word, omega
and tree algebras, bare slots, ``places`` and three-component products; and
the index-level division search against the search that closes every candidate
to the end, on the small semigroups into U1, U1 x U1 and U1 x U1 x U1."""

import itertools

import pytest

from emalg.algebra import (
    _grow_tuples,
    _index_closure,
    _places,
    generated_tuples,
    product,
    word_algebra,
)
from emalg.core import SortedOrderedSet
from emalg.lawsuite import exists_a, finitely_many_a, small_semigroups
from emalg.varieties import SearchBoundExceeded, _product, divides, generated_membership
from tests import _reference
from tests.test_algebra import bool_tree_algebra
from tests.test_algebra_tables import diagonal_bare_slot_algebra, zmod
from tests.test_generator_steps import count_cap_omega


def _u1():
    return word_algebra(
        SortedOrderedSet({0: [0, 1]}), {(x, y): min(x, y) for x in (0, 1) for y in (0, 1)}
    )


def _closure(algs, seeds, places):
    """The kernel's closure over ``places``, from label seeds to labels."""
    grow = _index_closure(algs, places)
    seeds = [tuple(a.carrier._index[x] for a, x in zip(algs, t)) for t in seeds]
    return {tuple(a.carrier._by_index[i] for a, i in zip(algs, t)) for t in grow(seeds)}


def _cases():
    """(components, seeds): each instance, bare slots, a three-component
    product, and seeds that repeat or generate nothing new."""
    z2, z3, z4 = zmod(2), zmod(3), zmod(4)
    yield [z3, z2], [(1, 1)]
    yield [z4, z2, z3], [(1, 1, 1)]
    yield [z4, z2, z3], [(2, 0, 1), (1, 1, 0), (2, 0, 1)]
    semis = small_semigroups()
    yield [semis[10], semis[20], semis[30]], [(0, 1, 2), (1, 0, 3)]
    om, _ = finitely_many_a()
    ex, _ = exists_a()
    yield [om, ex], [("h", "h"), ("n", "n")]
    yield [om, ex, om], [("n", "h", "h")]
    cap = count_cap_omega(2)
    yield [cap, om], [("f1", "h")]
    yield [cap, cap], [("f0", "f1"), ("i0", "iinf")]
    t = bool_tree_algebra(2)
    tv = bool_tree_algebra(2, with_var_slots=True)
    diag = diagonal_bare_slot_algebra()
    yield [t, tv], [((0, True), (0, False)), ((2, False), (2, True))]
    yield [tv, tv], [((0, False), (0, False)), ((2, False), (2, False))]
    yield [tv, t, tv], [((0, False), (0, True), (0, False)), ((2, False), (2, False), (2, True))]
    yield [diag, tv], [((0, False), (0, False)), ((2, False), (2, False))]
    yield [tv, diag], [((2, False), (2, True)), ((0, True), (0, False))]
    yield [diag], [((0, False),), ((2, False),)]


def test_the_kernel_equals_both_label_closures():
    count = 0
    for algs, seeds in _cases():
        got = generated_tuples(algs, seeds)
        assert got == _reference.generated_tuples(algs, seeds), (algs, seeds)
        assert got == set(_reference.grow_tuples(algs, seeds)), (algs, seeds)
        count += len(got)
    assert count > 60


def test_the_kernel_yields_each_tuple_once_seeds_first():
    for algs, seeds in _cases():
        grown = list(_grow_tuples(algs, seeds))
        assert len(grown) == len(set(grown))
        firsts = list(dict.fromkeys(map(tuple, seeds)))
        assert grown[: len(firsts)] == firsts


def test_bare_slots_are_read_in_the_kernel():
    """The diagonal algebra's two bare-slot entries give flags that its
    entries without bare slots never give from these seeds."""
    diag = diagonal_bare_slot_algebra()
    t = bool_tree_algebra(2)
    seeds = [((0, False),), ((2, False),)]
    with_bare = generated_tuples([diag], seeds)
    without = _closure([diag], seeds, _places(t))
    assert ((1, True),) in with_bare - without
    assert without == set(_reference.grow_tuples([diag], seeds, _places(t)))


def test_places_limit_the_closure_as_over_labels():
    tv = bool_tree_algebra(2, with_var_slots=True)
    t = bool_tree_algebra(2)
    for gens in itertools.combinations(sorted(tv.carrier, key=repr), 2):
        seeds = [(g, g) for g in gens]
        for places in (_places(t), _places(tv), _places(tv)[:3]):
            got = _closure([tv, tv], seeds, places)
            assert got == set(_reference.grow_tuples([tv, tv], seeds, places))


def test_growing_on_from_a_closed_set_is_the_closure_of_both():
    """``closed`` is taken as found: the closure of S grown by one more
    seed yields exactly what the closure of S and the seed adds."""
    for algs, seeds in _cases():
        index = lambda t: tuple(a.carrier._index[x] for a, x in zip(algs, t))
        grow = _index_closure(algs, _places(algs[0]))
        seeds = list(map(index, seeds))
        for extra in itertools.islice(itertools.product(*(a.carrier for a in algs)), 0, None, 7):
            if len({a.carrier.sort_of(x) for a, x in zip(algs, extra)}) > 1:
                continue
            closed = list(grow(seeds[:-1]))
            both = set(grow(seeds[:-1] + [index(extra)]))
            added = list(grow([index(extra)], closed))
            assert len(added) == len(set(added))
            assert set(closed) | set(added) == both
            assert not set(closed) & set(added)
            assert both == set(_index_closure(algs, _places(algs[0]))(seeds[:-1] + [index(extra)]))


def test_one_kernel_grows_many_closures_as_over_labels():
    """One kernel grows many closures, as the division search does, and
    each equals the label-level one, on non-commutative components too."""
    left_zero = word_algebra(
        SortedOrderedSet({0: [0, 1, 2]}), {(x, y): x for x in range(3) for y in range(3)}
    )
    semis = small_semigroups()
    tv = bool_tree_algebra(2, with_var_slots=True)
    for algs in ([left_zero, zmod(3)], [semis[20], left_zero], [tv, diagonal_bare_slot_algebra()]):
        grow = _index_closure(algs, _places(algs[0]))
        index = lambda t: tuple(a.carrier._index[x] for a, x in zip(algs, t))
        label = lambda t: tuple(a.carrier._by_index[i] for a, i in zip(algs, t))
        elements = [
            t
            for t in itertools.product(*(a.carrier for a in algs))
            if len({a.carrier.sort_of(x) for a, x in zip(algs, t)}) == 1
        ]
        # a first closure of several rounds, then many more
        firsts = [elements[1], elements[-1], elements[len(elements) // 2]]
        for seeds in [firsts, *itertools.islice(itertools.combinations(elements, 2), 0, None, 3)]:
            got = {label(t) for t in grow(map(index, seeds))}
            assert got == _reference.generated_tuples(algs, seeds), seeds


def test_a_foreign_seed_is_refused():
    z2 = zmod(2)
    with pytest.raises(ValueError, match="seed component 5 is not in its carrier"):
        generated_tuples([z2, z2], [(0, 5)])


def _division(A, B, **kw):
    try:
        ok, wit = divides(A, B, **kw)
    except SearchBoundExceeded as exc:
        return str(exc)
    if wit is None:
        return ok, None, None
    return ok, wit.seed_pairs, wit.graph


def test_divides_into_powers_of_u1_equals_the_reference():
    u1 = _u1()
    powers = [u1, product([u1, u1]), product([u1, u1, u1])]
    corpus = small_semigroups()
    found = 0
    for A in corpus:
        for B in powers:
            got = _division(A, B)
            assert got == _reference.divides(A, B), (A, B)
            found += got[0] is True
    # the one- and two-element semilattices into every power, the two
    # three-element ones from U1 x U1 on
    assert found == 10


def test_generated_membership_equals_the_reference_search():
    """The first power of U1 that A divides, with the reference's seed
    pairs and graph, or no division up to U1 x U1 x U1."""
    u1 = _u1()
    for A in small_semigroups():
        verdict, wit = generated_membership(A, [u1])
        expected = (False, None, None)
        for k in range(1, 4):
            B = u1 if k == 1 else _product((u1,) * k)
            ref = _reference.divides(A, B)
            if ref[0] is True:
                expected = ref
                break
        got = (verdict, None, None) if wit is None else (verdict, wit.seed_pairs, wit.graph)
        assert got == expected, A
        assert wit is None or wit.verify()
