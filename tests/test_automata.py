import random
import re as pyre
import sys

import pytest

from emalg import automata
from emalg.algio import ParseError, parse_dfa_file
from emalg.automata import (
    Dfa,
    RegexSyntaxError,
    dfa_to_recognizer,
    parse_regex,
    words_up_to,
)
from emalg.core import CarrierBoundExceeded
from emalg.monads import Word
from tests._reference import hopcroft, thompson_dfa, transition_semigroup


CASES = [
    ("(a|b)*aa(a|b)*", r"(a|b)*aa(a|b)*"),
    ("(aa)+", r"(aa)+"),
    ("a", r"a"),
    ("(a|b)*ab", r"(a|b)*ab"),
    ("b*a*", r"b*a*"),
    ("a?b+", r"a?b+"),
    ("(ab|ba)*", r"(ab|ba)*"),
]


def test_regex_membership_matches_reference():
    for ours, ref in CASES:
        dfa = parse_regex(ours)
        for w in words_up_to(dfa.alphabet, 8):
            s = "".join(w)
            expected = bool(pyre.fullmatch(ref, s))
            assert dfa.accepts(w) == expected, (ours, s)


def test_epsilon_excluded_with_warning():
    dfa = parse_regex("a*")
    assert dfa.matches_epsilon
    assert not dfa.accepts(())
    assert dfa.accepts(("a",))


def test_minimal_state_counts():
    assert parse_regex("(a|b)*aa(a|b)*").n_states == 3
    assert parse_regex("(aa)+").n_states == 2
    assert parse_regex("(a|b)+").n_states == 1


def test_regex_syntax_errors():
    for bad in ["(a", "a)", "*a", "a+*?("]:
        with pytest.raises(RegexSyntaxError):
            parse_regex(bad)
    # an empty alternative is legal and denotes the empty word
    assert parse_regex("|a").matches_epsilon


def test_an_empty_alphabet_is_named_as_such():
    with pytest.raises(RegexSyntaxError, match="at position 0: the alphabet is empty"):
        parse_regex("", ())


def test_transition_semigroup_sizes():
    assert len(dfa_to_recognizer(parse_regex("(a|b)+")).algebra.carrier) == 1
    assert len(dfa_to_recognizer(parse_regex("(a|b)*aa(a|b)*")).algebra.carrier) == 5
    assert len(dfa_to_recognizer(parse_regex("(aa)+")).algebra.carrier) == 2


def test_recognizer_language_agreement():
    for ours, _ in CASES:
        dfa = parse_regex(ours)
        rec = dfa_to_recognizer(dfa)
        for w in words_up_to(dfa.alphabet, 8):
            assert rec.accepts(Word(w)) == dfa.accepts(w), (ours, w)


DFA_FILE = """
# the even-length unary language
alphabet a
states 2
start 0
accept 0
trans 0 a 1
trans 1 a 0
"""


def test_dfa_file_parsing():
    dfa = parse_dfa_file(DFA_FILE)
    assert dfa.accepts(("a", "a"))
    assert not dfa.accepts(("a",))
    assert not dfa.accepts(())  # nonempty-word semantics
    with pytest.raises(ParseError):
        parse_dfa_file("alphabet a\nstates 2\nstart 0\ntrans 0 a 1\n")


def test_dfa_totality_validated():
    with pytest.raises(ValueError):
        Dfa(("a",), 2, 0, frozenset({1}), {(0, "a"): 1})


def test_dfa_serialization_round_trip():
    from emalg.algio import dfa_to_text

    for rx, _ in CASES:
        dfa = parse_regex(rx)
        back = parse_dfa_file(dfa_to_text(dfa))
        assert back == dfa, rx
        for w in words_up_to(dfa.alphabet, 8):
            assert back.accepts(w) == dfa.accepts(w), (rx, w)
    for rx in _seeded_regexes():
        dfa = parse_regex(rx)
        assert parse_dfa_file(dfa_to_text(dfa)) == dfa, rx


@pytest.mark.parametrize("text", ["(a|b){4}", "a{2,3}", "a}", "{"])
def test_braces_are_rejected(text):
    # repetition counts are not supported; braces are no letters either
    with pytest.raises(RegexSyntaxError, match="unexpected '[{}]'"):
        parse_regex(text)


def _random_regex(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        return rng.choice("abc")
    kind = rng.choice("|.*+?")
    if kind in "|.":
        parts = [_random_regex(rng, depth - 1) for _ in range(rng.randint(2, 3))]
        return "(" + ("|" if kind == "|" else "").join(parts) + ")"
    return "(" + _random_regex(rng, depth - 1) + ")" + kind


def _seeded_regexes() -> list[str]:
    rng = random.Random(0)
    return [_random_regex(rng, 4) for _ in range(1000)]


# malformed patterns, empty groups and alternatives, and text of the
# parser fuzz tests' regex alphabet
MALFORMED = [
    "(a", "a)", "*a", "a+*?(", "(a|b){4}", "a{2,3}", "a}", "{", "", "()", "|", "(|)",
    "((a)", "a||b", "()*", "(|a)+", "a(|)b?", ")(", "a**+?", "(()())", "?", "a|*",
]


def _same_as_thompson(text, alphabet=None):
    try:
        want = automata._merge_start(automata._moore(thompson_dfa(text, alphabet)))
    except RegexSyntaxError as exc:
        with pytest.raises(RegexSyntaxError) as got:
            parse_regex(text, alphabet)
        assert (got.value.pos, str(got.value)) == (exc.pos, str(exc)), text
    else:
        got = parse_regex(text, alphabet)
        assert repr(got) == repr(want), text  # matches_epsilon included


def test_positions_give_the_automata_of_thompsons_construction():
    for r in _seeded_regexes():
        _same_as_thompson(r)
    for r in _seeded_regexes()[:200]:
        _same_as_thompson(r, "cab")
    for k in range(9):
        for x in "ab":
            _same_as_thompson("(a|b)*" + x + "(a|b)" * k)
    for r in MALFORMED:
        for alphabet in (None, "ab", "ba", "aa", "()"):
            _same_as_thompson(r, alphabet)
    rng = random.Random(1)
    for _ in range(1000):
        _same_as_thompson("".join(rng.choices("ab()|*+?{}", k=rng.randint(0, 12))))
    depth = 2 * sys.getrecursionlimit()
    _same_as_thompson("(" * depth + "a" + ")" * depth)


def test_moore_refinement_gives_the_automata_of_hopcroft_minimisation(monkeypatch):
    regexes = _seeded_regexes()
    regexes += ["(a|b)*" + x + "(a|b)" * k for x in "ab" for k in range(7)]
    ours = [parse_regex(r) for r in regexes]
    assert len({d.n_states for d in ours}) > 10
    monkeypatch.setattr(automata, "_moore", hopcroft)
    assert [parse_regex(r) for r in regexes] == ours



def _random_dfa(rng: random.Random) -> Dfa:
    """A total DFA of up to 5 states over up to 3 letters; sometimes two
    letters act alike."""
    n, alphabet = rng.randint(1, 5), tuple("abc"[: rng.randint(1, 3)])
    trans = {(q, c): rng.randrange(n) for q in range(n) for c in alphabet}
    if len(alphabet) > 1 and rng.random() < 0.3:
        trans.update({(q, alphabet[1]): trans[(q, alphabet[0])] for q in range(n)})
    return Dfa(alphabet, n, 0, frozenset(q for q in range(n) if rng.random() < 0.5), trans)


def test_the_product_fill_is_the_composed_table():
    rng = random.Random(4)
    dfas = [parse_regex(r) for r in _seeded_regexes()[:200]]
    dfas += [parse_regex("(a|b)*a" + "(a|b)" * k) for k in range(5)]
    dfas += [_random_dfa(rng) for _ in range(300)]
    checked = capped = 0
    for dfa in dfas:
        elems, mult = transition_semigroup(dfa)
        if len(elems) > 64:
            with pytest.raises(CarrierBoundExceeded, match=f"sort 0 has {len(elems)} elements"):
                dfa_to_recognizer(dfa)
            capped += 1
            continue
        alg = dfa_to_recognizer(dfa).algebra
        assert list(alg.carrier) == elems
        assert list(alg.mult.items()) == list(mult.items())
        checked += 1
    assert checked > 400 and capped > 10
