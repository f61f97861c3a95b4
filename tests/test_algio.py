import itertools
import json

import pytest

from emalg.algebra import _associative, _axiom_violations, word_algebra
from emalg.algio import MAX_TREE_ARITY, ParseError, parse_algebra, parse_dfa_file
from emalg.cli import EXIT_BOUND, EXIT_INPUT
from emalg.core import CarrierBoundExceeded, SortedOrderedSet
from emalg.monads import SORT_WORD
from tests.test_cli import run_cli


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("kind word\nelems 0 e\ndot e e e\nmix e e e\n", 4, "word algebras have no mix table"),
        ("kind word\nelems 0 e\nomega e e\ndot e e e\n", 3, "word algebras have no omega table"),
        ("kind word\nelems 0 e\ndot e e e\ncomp e e e\n", 4, "word algebras have no comp table"),
        ("kind tree\nelems 0 c\nelems 1 u\ndot u u u\ncomp u c c\n", 4, "tree algebras have no dot table"),
        ("kind omega\nelems 1 a\nelems inf w\n# a comment\n\ncomp a a a\n", 6, "omega algebras have no comp table"),
    ],
)
def test_a_table_line_the_kind_lacks_is_rejected(text, line, message):
    with pytest.raises(ParseError) as info:
        parse_algebra(text)
    assert info.value.line_no == line
    assert str(info.value) == f"line {line}: {message}"


def test_the_tables_of_each_kind_are_read():
    word = parse_algebra("kind word\nelems 0 e\ndot e e e\n")
    assert word.mult == {("e", "e"): "e"}
    omega = parse_algebra("kind omega\nelems 1 a\nelems inf w\ndot a a a\nmix a w w\nomega a w\n")
    assert (omega.dot, omega.mix, omega.omega) == ({("a", "a"): "a"}, {("a", "w"): "w"}, {"a": "w"})
    tree = parse_algebra("kind tree\nelems 0 c\nelems 1 u\ncomp u c c\ncomp u u u\ncomp u _ u\n")
    assert tree.comp == {("u", ("c",)): "c", ("u", ("u",)): "u", ("u", (None,)): "u"}
    with pytest.raises(ParseError, match="line 3: omega takes two elements"):
        parse_algebra("kind omega\nelems 1 a\nomega a\n")


@pytest.mark.parametrize(
    "line, message",
    [
        # both of the finite sort, so the line would order that sort
        ("leq inf n h", "leq element 'n' is not of sort inf"),
        ("leq 1 n x", "leq element 'x' is not of sort 1"),
    ],
)
def test_a_leq_line_names_elements_of_its_own_sort(line, message):
    with pytest.raises(ParseError) as info:
        parse_algebra(f"kind omega\nelems 1 n h\nelems inf x\n{line}\n")
    assert info.value.line_no == 4
    assert str(info.value) == f"line 4: {message}"


def test_a_stray_table_line_exits_as_an_input_error(tmp_path):
    path = tmp_path / "stray.alg"
    path.write_text("kind word\nelems 0 e\ndot e e e\nmix e e e\n")
    code, out = run_cli("check", str(path), "APERIODIC")
    assert code == EXIT_INPUT == 2
    assert json.loads(out) == {"command": "check", "error": "line 4: word algebras have no mix table"}


#: a two-element word table with (a.a).b = b.b = a but a.(a.b) = a.a = b
_NOT_ASSOCIATIVE = "kind word\nelems 0 a b\ndot a a b\ndot a b a\ndot b a a\ndot b b a\n"


@pytest.mark.parametrize("argv", [("check", "APERIODIC"), ("cover",)])
def test_a_non_associative_word_file_exits_as_an_input_error(tmp_path, argv):
    path = tmp_path / "nonassoc.alg"
    path.write_text(_NOT_ASSOCIATIVE)
    code, out = run_cli(argv[0], str(path), *argv[1:])
    assert code == EXIT_INPUT
    error = "line 0: associativity violated: ('mult-assoc', ('a', 'a', 'b'))"
    assert json.loads(out) == {"command": argv[0], "error": error}


def test_lights_test_is_the_associativity_axiom_on_every_three_element_table():
    carrier = SortedOrderedSet({SORT_WORD: [0, 1, 2]})
    associative = 0
    for values in itertools.product(range(3), repeat=9):
        alg = word_algebra(carrier, {(x, y): values[3 * x + y] for x in range(3) for y in range(3)})
        verdict = _associative(alg)
        assert verdict == (next(_axiom_violations(alg), None) is None), values
        associative += verdict
    # the semigroups on three labelled elements
    assert associative == 113


def _names(lo: int, hi: int) -> str:
    return " ".join(f"e{i}" for i in range(lo, hi))


@pytest.mark.parametrize(
    "text, message",
    [
        # one line past the cap fails there, before its bad table lines
        ("kind word\nelems 0 " + _names(0, 126) + "\ndot e0 e0\nnonsense\n", "sort 0 has 126 elements, cap is 64"),
        # a sort declared over several lines fails at the line that passes the cap
        ("kind word\nelems 0 " + _names(0, 40) + "\nelems 0 " + _names(40, 70) + "\nelems 1 x\n", "sort 0 has 70 elements, cap is 64"),
        ("kind tree\nelems 0 c\nelems 2 " + _names(0, 65) + "\ncomp\n", "sort 2 has 65 elements, cap is 64"),
        # a tree sort above the arity cap fails at its line, before its
        # signature is built
        ("kind tree\nelems 9 a\n", "tree sort 9 exceeds the arity cap 8"),
        ("kind tree\nelems 0 c\nelems 40 a\nnonsense\n", "tree sort 40 exceeds the arity cap 8"),
    ],
)
def test_an_elems_line_past_the_cap_exits_with_the_bound_code_at_once(tmp_path, text, message):
    with pytest.raises(CarrierBoundExceeded) as info:
        parse_algebra(text)
    assert str(info.value) == message
    path = tmp_path / "big.alg"
    path.write_text(text)
    code, out = run_cli("check", str(path), "APERIODIC")
    assert code == EXIT_BOUND
    assert json.loads(out) == {"command": "check", "error": message}


def test_a_sort_at_the_cap_is_read_to_the_end():
    with pytest.raises(ParseError, match="line 3: dot takes three elements"):
        parse_algebra("kind word\nelems 0 " + _names(0, 64) + "\ndot e0 e0\n")
    with pytest.raises(ParseError, match="line 3: unknown directive 'nonsense'"):
        parse_algebra(f"kind tree\nelems {MAX_TREE_ARITY} a\nnonsense\n")
    alg = parse_algebra(f"kind tree\nelems {MAX_TREE_ARITY} a\n")
    assert alg.monad.max_arity == MAX_TREE_ARITY


_EVEN = "alphabet a\nstates 2\nstart 0\naccept 0\ntrans 0 a 1\ntrans 1 a 0\n"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("states 2", "states", "line 2: states takes one count"),
        ("start 0", "start", "line 3: start takes one state"),
        ("alphabet a", "alphabet", "line 1: alphabet takes one or more letters"),
        ("states 2", "states 2 3", "line 2: states takes one count"),
        ("trans 0 a 1", "trans 0 a 1 1", "line 5: trans takes: state letter state"),
        ("states 2", "states x", "line 2: bad state count 'x'"),
        ("states 2", "states 0", "line 2: states must be at least 1"),
        ("start 0", "start x", "line 3: bad state 'x'"),
        ("accept 0", "accept 0 x", "line 4: bad state 'x'"),
        ("trans 1 a 0", "trans 1 a y", "line 6: bad state 'y'"),
        ("start 0", "start 2", "line 3: state 2 is outside 0..1"),
        ("accept 0", "accept 0 -1", "line 4: state -1 is outside 0..1"),
        ("trans 0 a 1", "trans 0 a 2", "line 5: state 2 is outside 0..1"),
        ("trans 1 a 0", "trans 1 a 0\ntrans 7 a 0", "line 7: state 7 is outside 0..1"),
        ("trans 1 a 0", "trans 1 a 0\ntrans 0 b 1", "line 7: letter 'b' is not in the alphabet"),
        ("trans 1 a 0", "trans 1 a 0\ntrans 0 a 0", "line 7: duplicate transition for state 0, letter 'a'"),
        ("start 0", "start 0\nstart 1", "line 4: duplicate start line"),
        ("accept 0", "accept 0\naccept 1", "line 5: duplicate accept line"),
        ("alphabet a", "alphabet a\nalphabet a b", "line 2: duplicate alphabet line"),
        ("alphabet a", "alphabet a a", "line 1: alphabet names a letter twice"),
        ("states 2", "states 2\nstates 3", "line 3: duplicate states line"),
    ],
)
def test_a_bad_dfa_line_exits_as_a_numbered_input_error(tmp_path, old, new, message):
    path = tmp_path / "even.dfa"
    path.write_text(_EVEN.replace(old, new))
    code, out = run_cli("syn", str(path))
    assert code == EXIT_INPUT
    assert json.loads(out) == {"command": "syn", "error": message}


def test_an_accept_line_may_name_no_state():
    assert parse_dfa_file(_EVEN.replace("accept 0", "accept")).accepting == frozenset()
