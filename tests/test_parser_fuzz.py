"""The parsers on arbitrary text: each returns a result or raises its
declared error, never another exception.

The draws are arbitrary text, lines made of each format's own words mixed
with arbitrary tokens (so that more of them get past the first line), and
deeply nested groups.  The profile in ``conftest.py`` derandomizes them."""

from hypothesis import given, settings, strategies as st

from emalg.algebra import FinAlgebra
from emalg.algio import ParseError, parse_algebra, parse_dfa_file
from emalg.automata import Dfa, RegexSyntaxError, parse_regex
from emalg.core import CarrierBoundExceeded
from emalg.profinite import OmegaPow, TermSeq, TermVar, parse_term

EXAMPLES = settings(max_examples=200, deadline=None)


def lines(words: list[str]):
    """Texts of up to 8 lines, each of up to 6 tokens: words of the format
    or arbitrary short text."""
    token = st.one_of(st.sampled_from(words), st.text(min_size=1, max_size=3))
    return st.lists(st.lists(token, max_size=6).map(" ".join), max_size=8).map("\n".join)


def nested(opening: str, closing: str):
    """Arbitrary short text inside up to 3,000 levels of brackets, or after
    as many postfix operators."""
    depth = st.integers(0, 3000)
    inner = st.text(max_size=4)
    return st.one_of(
        st.tuples(depth, inner).map(lambda t: opening * t[0] + t[1] + closing * t[0]),
        st.tuples(inner, depth, st.sampled_from("*+?")).map(lambda t: t[0] + t[2] * t[1]),
    )


def _line_count(text: str) -> int:
    return len(text.splitlines())


ALGEBRA_WORDS = [
    "kind", "word", "omega", "tree", "elems", "leq", "dot", "mix", "comp",
    "_", "0", "1", "2", "inf", "w", "a", "b", "e", "#",
]
DFA_WORDS = ["alphabet", "states", "start", "accept", "trans", "0", "1", "2", "-1", "a", "b", "#"]


@EXAMPLES
@given(st.one_of(st.text(), st.text(alphabet="ab()|*+?{}"), nested("(", ")")))
def test_parse_regex_returns_a_dfa_or_a_syntax_error(text):
    try:
        dfa = parse_regex(text)
    except RegexSyntaxError as exc:
        assert 0 <= exc.pos <= len(text)
    else:
        assert isinstance(dfa, Dfa)


@EXAMPLES
@given(st.text(alphabet="abc()|*+?", max_size=12), st.text(alphabet="abc", max_size=4))
def test_parse_regex_over_an_alphabet_keeps_it_or_raises_a_syntax_error(text, alphabet):
    # an alphabet that names a letter twice, or misses a literal, is an
    # error; an accepted one is the DFA's alphabet as given
    try:
        dfa = parse_regex(text, alphabet)
    except RegexSyntaxError as exc:
        assert 0 <= exc.pos <= len(text)
    else:
        assert dfa.alphabet == tuple(alphabet)
        assert len(set(alphabet)) == len(alphabet)
        assert set(text) - set("()|*+?") <= set(alphabet)


@EXAMPLES
@given(
    st.one_of(
        st.text(),
        lines(ALGEBRA_WORDS),
        st.tuples(st.sampled_from(["word", "omega", "tree"]), lines(ALGEBRA_WORDS)).map(
            lambda t: f"kind {t[0]}\n{t[1]}"
        ),
    )
)
def test_parse_algebra_returns_an_algebra_or_a_line_numbered_error(text):
    try:
        alg = parse_algebra(text)
    except ParseError as exc:
        assert 0 <= exc.line_no <= _line_count(text)
    except CarrierBoundExceeded:
        pass
    else:
        assert isinstance(alg, FinAlgebra)


@EXAMPLES
@given(st.one_of(st.text(), lines(DFA_WORDS)))
def test_parse_dfa_file_returns_a_dfa_or_a_line_numbered_error(text):
    try:
        dfa = parse_dfa_file(text)
    except ParseError as exc:
        assert 0 <= exc.line_no <= _line_count(text)
    else:
        assert isinstance(dfa, Dfa)


@EXAMPLES
@given(st.one_of(st.text(), st.text(alphabet="xyz()^w<= "), nested("(", ")")))
def test_parse_term_returns_a_term_or_a_value_error(text):
    try:
        term = parse_term(text)
    except ValueError:
        pass
    else:
        assert isinstance(term, (TermVar, TermSeq, OmegaPow))
