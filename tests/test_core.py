import itertools

import pytest
from hypothesis import given, strategies as st

from emalg.core import (
    NoFactorisation,
    Preorder,
    SortedFunction,
    SortedOrderedSet,
    factor_through,
    is_upward_closed,
    kernel,
    quotient_set,
    upward_closure,
)
from tests._reference import is_total_per_sort


def chain01():
    return SortedOrderedSet.chain([0, 1])


def test_carrier_validation():
    with pytest.raises(ValueError):
        SortedOrderedSet({0: ["a", "b"]}, [("a", "b"), ("b", "a")])  # not antisym
    with pytest.raises(ValueError):
        SortedOrderedSet({0: ["a"], 1: ["a"]})  # duplicate element
    with pytest.raises(ValueError):
        SortedOrderedSet({0: ["a"], 1: ["b"]}, [("a", "b")])  # cross-sort pair


def test_empty_sorts_allowed():
    A = SortedOrderedSet({0: [], 1: ["x"]})
    assert A.elements(0) == ()
    assert len(A) == 1


def test_a_map_keeps_only_the_keys_of_its_domain():
    # a key outside the domain is no point of the map: calling the map on
    # it is a KeyError, and neither its mapping nor its repr shows it
    f = SortedFunction(SortedOrderedSet({0: ["x"]}), SortedOrderedSet({0: ["p", "q"]}), {"x": "p", "junk": "q"})
    assert f("x") == "p"
    with pytest.raises(KeyError):
        f("junk")
    assert f.mapping == {"x": "p"}
    assert repr(f) == "SortedFunction({'x': 'p'})"
    assert not f.is_surjective()


def test_kernel_identity_is_carrier_order():
    A = chain01()
    f = SortedFunction(A, A, {x: x for x in A})
    assert kernel(f).pairs() == A.leq_pairs()


def test_kernel_constant_is_total():
    A = SortedOrderedSet({0: ["x", "y", "z"]})
    B = SortedOrderedSet({0: ["p"]})
    f = SortedFunction(A, B, {"x": "p", "y": "p", "z": "p"})
    assert is_total_per_sort(kernel(f))


def test_kernel_against_pair_enumeration():
    A = SortedOrderedSet({0: ["a", "b"]})
    f = SortedFunction(A, chain01(), {"a": 1, "b": 0})
    got = {(x, y) for x, y in kernel(f).pairs()}
    assert got == {("a", "a"), ("b", "b"), ("b", "a")}


def test_factor_through_identity():
    A = SortedOrderedSet({0: ["a", "b"]})
    g = SortedFunction(A, chain01(), {"a": 0, "b": 1})
    h = factor_through(SortedFunction(A, A, {x: x for x in A}), g)
    assert all(h(x) == g(x) for x in A)


def test_factor_through_forced():
    A = SortedOrderedSet({0: ["x", "y", "z"]})
    B = SortedOrderedSet({0: ["p", "q"]})
    f = SortedFunction(A, B, {"x": "p", "y": "p", "z": "q"})
    g = SortedFunction(A, chain01(), {"x": 0, "y": 0, "z": 1})
    h = factor_through(f, g)
    assert h("p") == 0 and h("q") == 1


def test_factor_through_kernel_violation_witness():
    A = SortedOrderedSet({0: ["x", "y"]})
    B = SortedOrderedSet({0: ["p"]})
    f = SortedFunction(A, B, {"x": "p", "y": "p"})
    g = SortedFunction(A, SortedOrderedSet({0: [0, 1]}), {"x": 0, "y": 1})
    with pytest.raises(NoFactorisation) as exc:
        factor_through(f, g)
    assert set(exc.value.witness) == {"x", "y"}


def test_quotient_by_own_order_is_isomorphic():
    A = chain01()
    Q, q = quotient_set(A, Preorder(A, A.leq_pairs()))
    assert len(Q) == len(A)
    assert kernel(q).pairs() == A.leq_pairs()


def test_quotient_total_preorder_one_class_per_sort():
    A = SortedOrderedSet({0: ["a", "b"], 1: ["c"]})
    pairs = [(x, y) for x in A for y in A if A.sort_of(x) == A.sort_of(y)]
    Q, q = quotient_set(A, Preorder(A, pairs))
    assert len(Q.elements(0)) == 1 and len(Q.elements(1)) == 1


def test_quotient_partial_identification():
    A = SortedOrderedSet({0: ["a", "b", "c"]})
    q = Preorder(A, [("a", "b"), ("b", "a")])
    Q, qfn = quotient_set(A, q)
    assert len(Q) == 2
    assert qfn("a") == qfn("b") != qfn("c")
    assert Q.is_trivially_ordered()


def test_quotient_map_kernel_is_input_preorder():
    A = SortedOrderedSet({0: ["a", "b", "c"]})
    q = Preorder(A, [("a", "b")])
    _, qfn = quotient_set(A, q)
    assert kernel(qfn) == q


def test_upward_closure():
    A = SortedOrderedSet.chain([0, 1, 2])
    assert upward_closure(A, {1}) == {1, 2}
    assert upward_closure(A, set()) == frozenset()
    trivial = SortedOrderedSet({0: ["a", "b"]})
    assert upward_closure(trivial, {"a"}) == {"a"}
    assert is_upward_closed(A, {1, 2})
    assert not is_upward_closed(A, {1})


def _random_preorder_cases():
    A = SortedOrderedSet({0: ["a", "b", "c"]})
    elems = list(A)
    for mask in range(2 ** 6):
        pairs = []
        nonrefl = [(x, y) for x in elems for y in elems if x != y]
        for i, p in enumerate(nonrefl):
            if mask >> i & 1:
                pairs.append(p)
        yield A, Preorder(A, pairs)


def test_factor_through_quotient_roundtrip():
    # factoring g through the quotient map of q succeeds exactly when
    # q is contained in the kernel of g
    A = SortedOrderedSet({0: ["a", "b", "c"]})
    targets = [
        SortedFunction(A, chain01(), {"a": 0, "b": 0, "c": 1}),
        SortedFunction(A, chain01(), {"a": 1, "b": 0, "c": 0}),
        SortedFunction(A, SortedOrderedSet({0: ["p"]}), {"a": "p", "b": "p", "c": "p"}),
    ]
    for _, q in itertools.islice(_random_preorder_cases(), 64):
        _, qfn = quotient_set(A, q)
        for g in targets:
            expected = q.pairs() <= kernel(g).pairs()
            try:
                h = factor_through(qfn, g)
                assert expected
                assert all(h(qfn(x)) == g(x) for x in A)
            except NoFactorisation:
                assert not expected


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8))
def test_preorder_closure_properties(extra):
    A = SortedOrderedSet({0: [0, 1, 2, 3]})
    q = Preorder(A, [(a, b) for a, b in extra])
    pairs = q.pairs()
    for a in A:
        assert (a, a) in pairs
    for a, b in pairs:
        for c, d in pairs:
            if b == c:
                assert (a, d) in pairs
