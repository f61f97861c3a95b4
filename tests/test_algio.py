import json

import pytest

from emalg.algio import ParseError, parse_algebra
from emalg.cli import EXIT_INPUT
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


def test_a_stray_table_line_exits_as_an_input_error(tmp_path):
    path = tmp_path / "stray.alg"
    path.write_text("kind word\nelems 0 e\ndot e e e\nmix e e e\n")
    code, out = run_cli("check", str(path), "APERIODIC")
    assert code == EXIT_INPUT == 2
    assert json.loads(out) == {"command": "check", "error": "line 4: word algebras have no mix table"}
