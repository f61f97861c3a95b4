"""The operation signature of each instance as construction sees it: which
tables ``FinAlgebra`` accepts and rejects op by op, the terminal algebra's
tables, and a pin of the one-step context functions."""

import hashlib
import itertools

import pytest

from emalg.algebra import FinAlgebra, one_element_algebra, restrict_sorts
from emalg.automata import dfa_to_recognizer, parse_regex
from emalg.core import SortedOrderedSet
from emalg.lawsuite import finitely_many_a
from emalg.monads import OMEGA_UP, SORT_FIN, SORT_INF, SORT_WORD, WORD, tree_monad
from emalg.syntactic import _one_step_functions, context_to_str, syntactic_algebra
from tests.test_algebra import bool_tree_algebra
from tests.test_algebra_tables import _recognizers, _small_algebras


# -- what construction accepts and rejects, op by op ---------------------------------


def _word_tables():
    """Z2 over sort 0, with a sort-1 element no word product may reach."""
    carrier = SortedOrderedSet({SORT_WORD: [0, 1], 1: ["stray"]})
    return carrier, {"mult": {(a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)}}


def _omega_tables():
    alg, _ = finitely_many_a()
    return alg.carrier, {"dot": alg.dot, "mix": alg.mix, "omega": alg.omega}


def _tree_tables():
    alg = bool_tree_algebra()
    return alg.carrier, {"comp": alg.comp}


_MONADS = {"mult": WORD, "dot": OMEGA_UP, "mix": OMEGA_UP, "omega": OMEGA_UP, "comp": tree_monad(2)}
_TABLES = {"mult": _word_tables, "dot": _omega_tables, "mix": _omega_tables, "omega": _omega_tables, "comp": _tree_tables}


def _build(op, edit):
    carrier, tables = _TABLES[op]()
    tables = {name: dict(t) for name, t in tables.items()}
    edit(tables[op])
    return FinAlgebra(_MONADS[op], carrier, **tables)


@pytest.mark.parametrize("op", ["mult", "dot", "mix", "omega", "comp"])
def test_the_unedited_tables_are_accepted(op):
    _build(op, lambda table: None)


@pytest.mark.parametrize(
    "op, key",
    [
        ("mult", (1, 0)),
        ("dot", ("h", "n")),
        ("mix", ("n", "inf")),
        ("omega", "h"),
        ("comp", ((2, True), ((0, False), (1, True)))),
    ],
)
def test_a_missing_entry_is_rejected(op, key):
    with pytest.raises(ValueError):
        _build(op, lambda table: table.pop(key))


@pytest.mark.parametrize(
    "op, key, value",
    [
        ("mult", (1, 1), "stray"),  # a sort-1 value
        ("dot", ("n", "h"), "inf"),  # an infinite value
        ("mix", ("h", "fin"), "n"),  # a finite value
        ("omega", "n", "h"),  # a finite value
        ("comp", ((1, False), ((1, False),)), (0, False)),  # sort 0, not 1
    ],
)
def test_a_value_of_the_wrong_sort_is_rejected(op, key, value):
    with pytest.raises(ValueError):
        _build(op, lambda table: table.__setitem__(key, value))


def test_comp_heads_take_as_many_slots_as_their_sort():
    # a unary head with two slots
    with pytest.raises(ValueError):
        _build("comp", lambda t: t.__setitem__(((1, False), ((0, False), (0, False))), (0, False)))
    # a binary head with one slot
    with pytest.raises(ValueError):
        _build("comp", lambda t: t.__setitem__(((2, False), ((0, False),)), (1, False)))


def test_comp_results_stay_within_the_arity_cap():
    # b(b, u) would have sort 3 under the cap 2
    with pytest.raises(ValueError):
        _build("comp", lambda t: t.__setitem__(((2, False), ((2, False), (1, False))), (2, False)))


def test_the_tree_signature_is_every_slot_tuple_within_the_cap():
    # in the order of filtering the whole product, which it no longer builds
    for m in range(7):
        assert tree_monad(m).signature == tuple(
            ("comp", (n, *slots), sum(slots))
            for n in range(1, m + 1)
            for slots in itertools.product(range(m + 1), repeat=n)
            if sum(slots) <= m
        )
    assert len(tree_monad(8).signature) == 24309


def test_an_empty_infinite_sort_leaves_omega_without_entries():
    """Sort restriction keeps the finite sort of an omega algebra alone: a
    bare ordered semigroup, with nowhere for mix and omega to land."""
    alg, _ = finitely_many_a()
    fin = restrict_sorts(alg, {SORT_FIN})
    assert fin.carrier.elements(SORT_INF) == ()
    assert (fin.dot, fin.mix, fin.omega) == (alg.dot, {}, {})
    carrier = SortedOrderedSet({SORT_FIN: ["n", "h"], SORT_INF: []})
    FinAlgebra(OMEGA_UP, carrier, dot=alg.dot)
    FinAlgebra(OMEGA_UP, SortedOrderedSet({SORT_FIN: ["n", "h"]}), dot=alg.dot)


@pytest.mark.parametrize("declared", [False, True])
def test_a_tree_key_whose_result_sort_is_empty_is_rejected(declared):
    """Under the cap 3, b(u, b) has sort 3; with sort 3 empty no table can
    hold it, so the carrier has no tree algebra on it."""
    elems = {1: ["u"], 2: ["b"], **({3: []} if declared else {})}
    carrier = SortedOrderedSet(elems)
    comp = {("u", ("u",)): "u", ("u", ("b",)): "b", ("b", ("u", "u")): "b"}
    for slots in itertools.product(["u", "b"], repeat=2):
        if slots != ("u", "u"):
            assert sum(carrier.sort_of(s) for s in slots) >= 3
    with pytest.raises(ValueError):
        FinAlgebra(tree_monad(3), carrier, comp=comp)
    # under the cap 2, b(u, b) is no key at all
    FinAlgebra(tree_monad(2), carrier, comp=comp)


def _stray_entries():
    """Tables holding entries that fit no operation of the monad."""
    z2 = _word_tables()[1]
    yield "dot in a word algebra", WORD, _word_tables()[0], {**z2, "dot": {(0, 1): 1}}
    yield "dot on non-elements", WORD, _word_tables()[0], {**z2, "dot": {("p", "q"): "r"}}
    yield "omega in a word algebra", WORD, _word_tables()[0], {**z2, "omega": {0: 1}}
    omega_carrier, omega = _omega_tables()
    dot = {**omega["dot"], ("n", "fin"): "n"}  # an infinite argument
    yield "dot of sorts (1, inf)", OMEGA_UP, omega_carrier, {**omega, "dot": dot}
    tree_carrier, tree = _tree_tables()
    yield "comp in an omega algebra", OMEGA_UP, omega_carrier, {**omega, "comp": {("n", ("h",)): "n"}}
    yield "mult in a tree algebra", tree_monad(2), tree_carrier, {**tree, "mult": {((0, False), (0, False)): (0, False)}}
    comp = {**tree["comp"], ((0, False), ()): (0, False)}  # a constant has no slot
    yield "comp with no slot", tree_monad(2), tree_carrier, {"comp": comp}


@pytest.mark.parametrize("case", list(_stray_entries()), ids=lambda case: case[0])
def test_entries_outside_the_signature_are_rejected(case):
    _, monad, carrier, tables = case
    with pytest.raises(ValueError, match="fits no"):
        FinAlgebra(monad, carrier, **tables)


# -- the terminal algebra ----------------------------------------------------------


def test_one_element_algebras_written_out():
    u1, u2 = ("unit", SORT_FIN), ("unit", SORT_INF)
    one = one_element_algebra(OMEGA_UP)
    assert [(s, one.elements(s)) for s in one.carrier.sorts] == [(1, (u1,)), (2, (u2,))]
    assert (one.mult, one.comp) == ({}, {})
    assert one.dot == {(u1, u1): u1}
    assert one.mix == {(u1, u2): u2}
    assert one.omega == {u1: u2}
    u = {s: ("unit", s) for s in range(3)}
    tree = one_element_algebra(tree_monad(2))
    # entries with at least one slot; a constant's own value is the unit law
    assert [(k, v) for k, v in tree.comp.items() if k[1]] == [
        ((u[1], (u[0],)), u[0]),
        ((u[1], (u[1],)), u[1]),
        ((u[1], (u[2],)), u[2]),
        ((u[2], (u[0], u[0])), u[0]),
        ((u[2], (u[0], u[1])), u[1]),
        ((u[2], (u[0], u[2])), u[2]),
        ((u[2], (u[1], u[0])), u[1]),
        ((u[2], (u[1], u[1])), u[2]),
        ((u[2], (u[2], u[0])), u[2]),
    ]
    word = one_element_algebra(WORD)
    assert word.mult == {(("unit", 0), ("unit", 0)): ("unit", 0)}


# -- the one-step context functions ------------------------------------------------


def _step_algebras():
    for rec in _recognizers():
        syn = syntactic_algebra(rec)
        yield from (rec.algebra, syn.image.algebra, syn.syn_algebra)
    yield from _small_algebras()
    for k in range(5):
        rec = dfa_to_recognizer(parse_regex("(a|b)*a" + "(a|b)" * k))
        yield rec.algebra
        yield syntactic_algebra(rec).syn_algebra


def _describe_steps(alg) -> str:
    return "\n".join(
        repr(
            (
                f.source_sort,
                f.target_sort,
                sorted(f.table.items(), key=repr),
                context_to_str(f.witness, repr),
            )
        )
        for f in _one_step_functions(alg)
    )


ONE_STEP_PIN = "86f36a0793a674daa98e90be2f017a09753243b1724590fb7b188bbade36c279"


def test_one_step_functions_are_pinned():
    text = "\n\n".join(_describe_steps(alg) for alg in _step_algebras())
    assert hashlib.sha256(text.encode()).hexdigest() == ONE_STEP_PIN
