"""The stored table layout: one read-only mapping per op, keyed by the flat
argument tuple of each entry, converted once from the keyword tables and
shown back in their shapes."""

import pytest

from emalg.algebra import (
    _OPS,
    FinAlgebra,
    _entries,
    eval_element,
    is_congruence_ordering,
    quotient_algebra,
    word_algebra,
)
from emalg.core import Preorder, SortedOrderedSet
from emalg.lawsuite import (
    cover_corpus,
    exists_a,
    finitely_many_a,
    ordered_finitely_many_a,
    small_semigroups,
)
from emalg.monads import SORT_WORD, Word
from tests.test_algebra import bool_tree_algebra
from tests.test_algebra_tables import _closure_cases, _small_algebras


def _library():
    yield from _small_algebras()
    for algs, _ in _closure_cases():
        yield from algs
    yield from small_semigroups(3)
    yield from cover_corpus().values()
    for make in (finitely_many_a, exists_a, ordered_finitely_many_a):
        yield make()[0]


def _old_shape(op: str, table) -> list:
    """``table`` (keyed by flat argument tuples) keyed as the keyword
    argument ``op`` of ``FinAlgebra`` is."""
    if op == "omega":
        return [(args[0], v) for args, v in table.items()]
    if op == "comp":
        return [((args[0], args[1:]), v) for args, v in table.items()]
    return list(table.items())


def test_the_keyword_tables_round_trip_through_the_stored_layout():
    count = 0
    for alg in _library():
        views = {op: getattr(alg, op) for op in _OPS}
        for op in _OPS:
            assert list(views[op].items()) == _old_shape(op, alg.tables[op]), op
        rebuilt = FinAlgebra(alg.monad, alg.carrier, **views)
        assert list(_entries(rebuilt)) == list(_entries(alg))
        count += 1
    assert count > 50


def _constant_word_algebra():
    """x.y = 2 for all x, y in {0, 1, 2}."""
    carrier = SortedOrderedSet({SORT_WORD: [0, 1, 2]})
    return word_algebra(carrier, {(x, y): 2 for x in range(3) for y in range(3)})


def test_a_checked_congruence_cannot_be_invalidated_by_editing_a_table():
    A = _constant_word_algebra()
    q = Preorder(A.carrier, [(0, 1), (1, 0)])
    assert is_congruence_ordering(A, q)  # builds the integer view
    with pytest.raises(TypeError):
        A.mult[(0, 0)] = 0
    assert eval_element(A, {0: 0}, Word((0, 0))) == 2
    quot, cls = quotient_algebra(A, q)
    assert quot.mult[(cls(0), cls(0))] == 2


def test_every_table_and_view_rejects_item_assignment():
    tree = bool_tree_algebra(with_var_slots=True)
    for alg in (_constant_word_algebra(), finitely_many_a()[0], tree):
        with pytest.raises(TypeError):
            alg.tables["mult"] = {}
        for op in _OPS:
            for table in (alg.tables[op], getattr(alg, op)):
                key = next(iter(table), ("x",))
                with pytest.raises(TypeError):
                    table[key] = "x"
                with pytest.raises(TypeError):
                    del table[key]
