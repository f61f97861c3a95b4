"""The stored table layout: integer tables, coded once from the keyword
tables or written directly by the internal constructions, and shown back
as one read-only mapping per op, keyed by the flat argument tuple of each
entry, and in the keyword shapes."""

import pytest

from emalg import algebra, lawsuite
from emalg.algebra import (
    _OPS,
    FinAlgebra,
    eval_element,
    is_congruence_ordering,
    one_element_algebra,
    product,
    quotient_algebra,
    restrict_sorts,
    word_algebra,
)
from emalg.automata import dfa_to_recognizer, parse_regex
from emalg.core import Preorder, SortedOrderedSet
from emalg.lawsuite import (
    cover_corpus,
    exists_a,
    finitely_many_a,
    ordered_finitely_many_a,
    small_semigroups,
)
from emalg.monads import OMEGA_UP, SORT_FIN, SORT_WORD, Word, tree_monad
from emalg.syntactic import syntactic_algebra
from tests import _reference
from tests.test_algebra import bool_tree_algebra
from tests.test_algebra_tables import _closure_cases, _recognizers, _small_algebras
from tests.test_generator_steps import family, run_cli


def _library():
    yield from _small_algebras()
    for algs, _ in _closure_cases():
        yield from algs
    yield from small_semigroups(3)
    yield from cover_corpus().values()
    for make in (finitely_many_a, exists_a, ordered_finitely_many_a):
        yield make()[0]
    yield from _integer_built()


def _integer_built():
    """Algebras that the internal constructions write as integer tables: a
    DFA recognizer's, quotients, restrictions, products and terminal
    algebras, bare slots and orders included."""
    yield dfa_to_recognizer(parse_regex(family("a", 3))).algebra
    for rec in _recognizers():
        yield syntactic_algebra(rec).syn_algebra
    tv = bool_tree_algebra(3, with_var_slots=True)
    yield from (restrict_sorts(tv, {0, 1}), restrict_sorts(tv, {1, 3}))
    yield restrict_sorts(finitely_many_a()[0], {SORT_FIN})
    yield from (product([tv, bool_tree_algebra(3)]), product([ordered_finitely_many_a()[0]] * 2))
    yield from (one_element_algebra(OMEGA_UP), one_element_algebra(tree_monad(2)))


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
        assert list(_reference.entries(rebuilt)) == list(_reference.entries(alg))
        # coding the view gives the stored tables back, entry order included
        assert [(place, list(t.items())) for place, t in rebuilt._coded.items()] == [
            (place, list(t.items())) for place, t in alg._coded.items()
        ]
        count += 1
    assert count > 60


def _count_codings(monkeypatch) -> tuple:
    """Record each label -> integer coding and each algebra built from
    label tables."""
    codings, label_built = [], []
    encode, init = algebra._encode, FinAlgebra.__init__

    def counted_encode(carrier, tables):
        codings.append(carrier)
        return encode(carrier, tables)

    def counted_init(self, *args, **kwargs):
        label_built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(algebra, "_encode", counted_encode)
    monkeypatch.setattr(FinAlgebra, "__init__", counted_init)
    return codings, label_built


def test_label_tables_are_coded_once_per_label_built_algebra(monkeypatch):
    """The word pipeline builds every algebra from integer tables, and the
    canonical covers code each corpus algebra once: quotients,
    restrictions and products are written as integers."""
    codings, label_built = _count_codings(monkeypatch)
    for command in ("syn", "decompose"):
        assert run_cli(command, family("a", 4))[0] == 0
    assert codings == label_built == []
    assert lawsuite.check_canonical_covers().ok
    assert len(codings) == len(label_built) > 0


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
