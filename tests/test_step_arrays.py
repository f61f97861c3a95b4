"""The pair search over distinct integer steps, contexts built only where
they are printed, and the integer tables a DFA recognizer is built from."""

import contextlib
import io
import itertools

import pytest

from emalg import algebra, cli, syntactic
from emalg.algebra import Recognizer, word_algebra
from emalg.automata import dfa_to_recognizer, parse_regex
from emalg.core import Preorder, SortedOrderedSet, upward_closure
from emalg.lawsuite import corpus_languages, exists_a, finitely_many_a, ordered_finitely_many_a
from emalg.monads import SORT_FIN
from emalg.syntactic import (
    _generators,
    _one_step_functions,
    _pair_depths,
    _step_arrays,
    decompose_as_derivatives,
    syntactic_algebra,
    syntactic_preorder,
)
from tests._reference import step_arrays
from tests.test_algebra import bool_tree_algebra
from tests.test_generator_steps import count_cap_omega, family


def _accepting_sets(alg, sort):
    """Every up-set of a sort of at most 6 elements; over a larger sort,
    the principal up-sets, the empty set and the whole sort."""
    es = alg.elements(sort)
    if len(es) <= 6:
        chosen = (c for k in range(len(es) + 1) for c in itertools.combinations(es, k))
    else:
        chosen = [(), es, *((e,) for e in es)]
    upsets = {upward_closure(alg.carrier, c) for c in chosen}
    return sorted(upsets, key=lambda u: sorted(map(repr, u)))


def _tree_recognizer(with_var_slots=False):
    alg = bool_tree_algebra(with_var_slots=with_var_slots)
    alphabet = SortedOrderedSet({0: ["c", "d"], 1: ["u"], 2: ["b"]})
    beta = {"c": (0, False), "d": (0, True), "u": (1, False), "b": (2, False)}
    return Recognizer(alphabet, alg, beta, upward_closure(alg.carrier, {(0, True)}))


def _omega_recognizer():
    alg, beta = finitely_many_a()
    return Recognizer(SortedOrderedSet({SORT_FIN: ["a", "b"]}), alg, beta, frozenset({"fin"}))


# -- no context outside decompose -----------------------------------------------------


@pytest.fixture
def contexts_built(monkeypatch):
    """The number of contexts ``syntactic`` builds: calls of its
    ``context_compose`` and of the shallow terms it reads from ``_TERM``."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        syntactic, "context_compose", counted("context_compose", syntactic.context_compose)
    )
    terms = {op: counted(op, fn) for op, fn in algebra._TERM.items()}
    monkeypatch.setattr(syntactic, "_TERM", terms)
    return calls


def test_syn_builds_no_context(contexts_built):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["syn", family("a", 3)]) == cli.EXIT_OK
    assert contexts_built == []


@pytest.mark.parametrize("rec", [_tree_recognizer(), _tree_recognizer(True), _omega_recognizer()])
def test_syntactic_algebra_builds_no_context(contexts_built, rec):
    syntactic_algebra(rec)
    assert contexts_built == []


def test_decompose_still_builds_contexts(contexts_built):
    syn = syntactic_algebra(dfa_to_recognizer(parse_regex(family("b", 2))))
    assert contexts_built == []
    dec = decompose_as_derivatives(syn, syn.accepting)
    assert dec.clauses and contexts_built


# -- distinct integer steps against the witnessed ones --------------------------------


def _step_cases():
    """Algebras with and without variable slots, the omega fixtures and the
    images of the suffix family."""
    for arity in (2, 3):
        for with_var_slots in (False, True):
            yield bool_tree_algebra(arity, with_var_slots)
    for make in (finitely_many_a, exists_a, ordered_finitely_many_a):
        yield make()[0]
    for cap in (1, 2, 3):
        yield count_cap_omega(cap)
    for k in range(5):
        for letter in "ab":
            yield dfa_to_recognizer(parse_regex(family(letter, k))).algebra


def test_distinct_steps_give_the_witnessed_steps_preorder_and_depths():
    searches = dropped = 0
    for alg in _step_cases():
        gens = _generators(alg)
        distinct = _step_arrays(alg, gens)
        witnessed = step_arrays(alg, _one_step_functions(alg, gens))
        # the same tables, each once
        key = lambda step: (tuple(step[0]), tuple(step[1]))  # noqa: E731
        assert len(set(map(key, distinct))) == len(distinct)
        assert set(map(key, distinct)) == set(map(key, witnessed))
        dropped += len(witnessed) - len(distinct)
        for sort in alg.carrier.sorts:
            for P in _accepting_sets(alg, sort):
                depths = _pair_depths(alg, P, sort, witnessed)
                pre = syntactic_preorder(alg, P, sort)
                assert pre.depths == depths
                elems, sort_of = alg.carrier._by_index, alg.carrier.sort_of
                n = len(elems)
                pairs = [
                    (a, b)
                    for i, a in enumerate(elems)
                    for j, b in enumerate(elems)
                    if depths[i * n + j] < 0 and sort_of(a) == sort_of(b)
                ]
                assert pre == Preorder(alg.carrier, pairs)
                searches += 1
    assert searches > 150 and dropped > 0


# -- the integer tables a DFA recognizer is built from ----------------------------------


def _dfa_algebras():
    for rx, alphabet in corpus_languages().values():
        yield dfa_to_recognizer(parse_regex(rx, alphabet)).algebra
    for k in range(5):
        for letter in "ab":
            yield dfa_to_recognizer(parse_regex(family(letter, k))).algebra


def test_the_column_tables_are_the_coded_labels():
    """The tables ``dfa_to_recognizer`` codes from its columns are those
    that coding its label view gives, entry order included: the walk's
    first witness reads them in that order."""
    for alg in _dfa_algebras():
        rebuilt = word_algebra(alg.carrier, alg.mult)
        assert list(alg._coded) == list(rebuilt._coded) == [("mult", 2, ())]
        for place, table in alg._coded.items():
            assert list(table.items()) == list(rebuilt._coded[place].items())
