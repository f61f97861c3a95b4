"""The word pipeline against oracles on plain tuples, over drawn regexes.

Hypothesis draws small regexes over {a, b} and over {a, b, c}.  The
syntactic semigroup of a language is the transition semigroup of its
minimal automaton (McNaughton and Papert 1971), and the language is
first-order definable iff that semigroup is aperiodic (Schützenberger
1965).  Its order is Pin's (1995): u <= v iff, for every state q, every
word (the empty one included) that leads q.u into acceptance also leads
q.v there.  The oracles below read the automaton's transition table as
tuples and share no code with ``emalg.algebra``, ``emalg.syntactic`` or
``emalg.profinite``: they are a breadth-first search over letter-word
transformations, a power test and the state inclusion order.
The automaton itself is checked against the drawn expression's words up to
a length, built up the expression's tree as sets of strings (Python's
``re`` backtracks exponentially on nested stars), and the algebra that
``syn`` prints must accept the same words, read off its printed table.

A draw whose semigroup passes the carrier cap must make ``syn`` and
``decide fo`` exit with the bound code; such draws are counted, never
dropped.  The elements that ``syn`` prints are matched with the
transformations through its printed letters and table, and its printed
order must be Pin's order on them.  Its table must come in the order of
the texts of its entries over those transformations, ((a, b), a b).
Apart from the oracles, ``dfa_to_recognizer`` must give what the search
it replaced gives (``tests/_reference.py``), on every draw and on
one-state and three-letter automata.
"""

import collections
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emalg.algio import dfa_to_text, parse_dfa_file
from emalg.automata import Dfa, dfa_to_recognizer, parse_regex, words_up_to
from emalg.cli import EXIT_BOUND, EXIT_NEGATIVE, EXIT_OK, main
from emalg.core import MAX_SORT_SIZE, CarrierBoundExceeded
from emalg.monads import Word
from tests import _reference
from tests.test_generator_steps import state_inclusion

LETTERS = "ab"
MEMBERSHIP_LENGTH = 6


def _expressions(letters: str = LETTERS):
    """Regex trees over ``letters`` with at most 12 leaves: a letter or the
    empty pattern "()", or ("." | "|", left, right), or ("*" | "+" | "?",
    inner)."""

    def extend(inner):
        pairs = st.tuples(inner, inner)
        return st.one_of(
            pairs.map(lambda p: (".",) + p),
            pairs.map(lambda p: ("|",) + p),
            st.tuples(st.sampled_from("*+?"), inner),
        )

    return st.recursive(st.sampled_from([*letters, "()"]), extend, max_leaves=12)


def text(e) -> str:
    """The regex of a tree; every union and postfix operand is
    parenthesised."""
    if isinstance(e, str):
        return e
    if e[0] == ".":
        return text(e[1]) + text(e[2])
    if e[0] == "|":
        return f"({text(e[1])}|{text(e[2])})"
    return f"({text(e[1])}){e[0]}"


def words_of(e, n: int) -> set:
    """The words of length at most ``n`` that the tree matches, the empty
    word included."""
    if e == "()":
        return {""}
    if isinstance(e, str):
        return {e}
    if e[0] == ".":
        right = words_of(e[2], n)
        return {u + v for u in words_of(e[1], n) for v in right if len(u + v) <= n}
    if e[0] == "|":
        return words_of(e[1], n) | words_of(e[2], n)
    inner = words_of(e[1], n)
    if e[0] == "?":
        return inner | {""}
    found = set(inner)
    while True:
        more = {u + v for u in found for v in inner if len(u + v) <= n} - found
        if not more:
            break
        found |= more
    return found | {""} if e[0] == "*" else found


def transformations(dfa) -> list[tuple]:
    """The distinct maps of the states induced by nonempty words, found
    breadth first from the letters by appending one letter at a time."""
    letter_maps = [tuple(dfa.trans[(q, c)] for q in range(dfa.n_states)) for c in dfa.alphabet]
    found = list(dict.fromkeys(letter_maps))
    seen = set(found)
    for t in found:  # grows while it is read
        for g in letter_maps:
            tg = tuple(g[q] for q in t)
            if tg not in seen:
                seen.add(tg)
                found.append(tg)
    return found


def aperiodic(semigroup: list[tuple]) -> bool:
    """s^n = s^(n+1) for every s, with n the size of the semigroup."""
    n = len(semigroup)
    for s in semigroup:
        power = s
        for _ in range(n - 1):
            power = tuple(s[q] for q in power)
        if tuple(s[q] for q in power) != power:
            return False
    return True


def element_maps(dump: dict, dfa) -> dict:
    """Each element that ``syn`` printed, with the map of the automaton's
    states that its words induce, found breadth first from the printed
    letter images by appending one letter at a time through the printed
    table.  Every word that reaches an element must induce its map."""
    letters = dump["letters"]

    def then(t, c):
        return tuple(dfa.trans[(q, c)] for q in t)

    maps: dict = {}
    todo = [(letters[c], then(range(dfa.n_states), c)) for c in dfa.alphabet]
    for e, t in todo:  # grows while it is read
        if e in maps:
            assert maps[e] == t, e
            continue
        maps[e] = t
        todo += [(dump["table"][f"{e} {letters[c]}"], then(t, c)) for c in dfa.alphabet]
    return maps


def pin_order(maps: dict, dfa) -> list:
    """u <= v for elements u != v whose maps send every state to a pair in
    the state inclusion order, as ``syn`` prints them."""
    below = state_inclusion(dfa)
    return sorted(
        f"{u} <= {v}"
        for u in maps
        for v in maps
        if u != v and all(pair in below for pair in zip(maps[u], maps[v]))
    )


def _value(dump: dict, word: str) -> str:
    """The value of ``word`` in the algebra that ``syn`` printed, read off
    its letter images and its product table."""
    value = dump["letters"][word[0]]
    for c in word[1:]:
        value = dump["table"][f"{value} {dump['letters'][c]}"]
    return value


def _recognizer(build, dfa):
    """What ``build`` makes of ``dfa``: the carrier, the integer table
    with its entry order, the letters' values and the accepting set; or
    the text of the carrier bound it passes."""
    try:
        rec = build(dfa)
    except CarrierBoundExceeded as exc:
        return str(exc)
    alg = rec.algebra
    table = [(place, list(t.items())) for place, t in alg._coded.items()]
    return list(alg.carrier), alg.carrier._rows, table, rec.assignment, rec.accepting


def _texts_in_order(dump: dict, maps: dict) -> bool:
    """Whether ``syn``'s printed table comes in the order of the texts of
    its entries ((a, b), a b) over the elements' maps."""
    texts = [repr(((maps[a], maps[b]), maps[v])) for (a, b), v in ((k.split(), v) for k, v in dump["table"].items())]
    return texts == sorted(texts)


def _run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, json.loads(buf.getvalue())


def _fixed_expressions(letters: str) -> list:
    """Regex trees over ``letters`` of each kind the draws must hold: any
    word ending in a (two elements, aperiodic, ordered) and the words of
    even nonzero length (not aperiodic)."""
    any_letter = letters[0]
    for c in letters[1:]:
        any_letter = ("|", any_letter, c)
    return [(".", ("*", any_letter), "a"), ("+", (".", any_letter, any_letter))]


def _check_draws(letters: str, examples: int, length: int):
    """Run the oracles on ``examples`` drawn regexes over ``letters``, then
    on ``_fixed_expressions``, with membership checked up to ``length``.
    The fixed ones run through the same body, so that what the tally wants
    holds whatever the draws are; they leave ``check``'s source, and so
    its derandomized draws, as they are."""
    tally = collections.Counter()

    @settings(max_examples=examples, deadline=None)
    @given(_expressions(letters))
    def check(e):
        rx = text(e)
        dfa = parse_regex(rx, letters)
        assert parse_dfa_file(dfa_to_text(dfa)) == dfa
        words = ["".join(w) for w in words_up_to(letters, length)]
        matched = words_of(e, length)
        assert [w for w in words if dfa.accepts(w)] == [w for w in words if w in matched], rx
        assert dfa.matches_epsilon == ("" in matched), rx
        semigroup = transformations(dfa)
        syn_code, syn = _run("syn", rx, "--alphabet", letters)
        fo_code, fo = _run("decide", "fo", rx, "--alphabet", letters)
        if len(semigroup) > MAX_SORT_SIZE:
            tally["past the cap"] += 1
            cap = f"has {len(semigroup)} elements, cap is {MAX_SORT_SIZE}"
            assert syn_code == fo_code == EXIT_BOUND, rx
            assert cap in syn["error"] and cap in fo["error"], rx
            return
        tally["checked"] += 1
        assert syn_code == EXIT_OK and syn["verdict"]["size"] == len(semigroup), rx
        definable = aperiodic(semigroup)
        tally["definable" if definable else "not definable"] += 1
        assert fo_code == (EXIT_OK if definable else EXIT_NEGATIVE), rx
        assert fo["verdict"]["definable"] is definable, rx
        rec = dfa_to_recognizer(dfa)
        dump = syn["evidence"]
        maps = element_maps(dump, dfa)
        assert sorted(maps) == sorted(dump["elements"]), rx
        assert dump["order"] == pin_order(maps, dfa), rx
        tally["ordered"] += bool(dump["order"])
        accepting = set(dump["accepting"])
        for w in words:
            assert rec.accepts(Word(tuple(w))) == dfa.accepts(w), (rx, w)
            assert (_value(dump, w) in accepting) == dfa.accepts(w), (rx, w)

    check()
    for e in _fixed_expressions(letters):
        check.hypothesis.inner_test(e)
    # both verdicts and nontrivial orders occur, and the draws past the cap,
    # if any, were asserted one by one above
    assert tally["definable"] and tally["not definable"] and tally["ordered"], tally
    assert tally["checked"] > tally["past the cap"], tally


def test_word_pipeline_matches_the_tuple_oracles():
    _check_draws(LETTERS, 300, MEMBERSHIP_LENGTH)


def test_word_pipeline_matches_the_tuple_oracles_over_three_letters():
    _check_draws("abc", 150, 4)


def _check_against_the_reference(letters: str, examples: int):
    """On ``examples`` drawn regexes over ``letters``: ``dfa_to_recognizer``
    gives what the reference search gives, and ``syn`` prints its table in
    the text order of its entries over the transformations."""

    @settings(max_examples=examples, deadline=None)
    @given(_expressions(letters))
    def check(e):
        rx = text(e)
        dfa = parse_regex(rx, letters)
        assert _recognizer(dfa_to_recognizer, dfa) == _recognizer(_reference.dfa_to_recognizer, dfa), rx
        code, syn = _run("syn", rx, "--alphabet", letters)
        if code == EXIT_OK:
            assert _texts_in_order(syn["evidence"], element_maps(syn["evidence"], dfa)), rx
        else:
            assert code == EXIT_BOUND, rx

    check()


def test_transition_semigroups_and_printed_tables_match_the_reference():
    _check_against_the_reference(LETTERS, 300)
    _check_against_the_reference("abc", 150)


def test_one_state_and_three_letter_automata_give_the_searched_semigroup():
    # a one-state automaton has one map, on one state; the semigroups of
    # these automata, three distinct letter maps among them, come out as
    # the reference search finds them, and syn prints its tables in text
    # order
    one = Dfa(("a", "b"), 1, 0, frozenset({0}), {(0, "a"): 0, (0, "b"): 0})
    rejecting = Dfa(("a",), 1, 0, frozenset(), {(0, "a"): 0})
    three = parse_regex("(a|bc)*c(a|b)", "abc")
    assert len(set(dfa_to_recognizer(three).assignment.values())) == 3
    for dfa in (one, rejecting, parse_regex("(a|b)*"), three, parse_regex("(a|bc)*b", "abc")):
        assert _recognizer(dfa_to_recognizer, dfa) == _recognizer(_reference.dfa_to_recognizer, dfa), dfa
    assert list(dfa_to_recognizer(one).algebra.carrier) == [(0,)]
    assert dfa_to_recognizer(rejecting).accepting == frozenset()
    for rx, letters in (("(a|b)*", "ab"), ("(a|bc)*c(a|b)", "abc")):
        dfa = parse_regex(rx, letters)
        code, syn = _run("syn", rx, "--alphabet", letters)
        assert code == EXIT_OK, rx
        assert _texts_in_order(syn["evidence"], element_maps(syn["evidence"], dfa)), rx


def test_the_suffix_semigroup_at_k_5_passes_the_cap():
    # (a|b)*a(a|b){5} has 126 transformations: both searches find them all
    # and the carrier refuses them with the same text
    dfa = parse_regex("(a|b)*a" + "(a|b)" * 5)
    for build in (dfa_to_recognizer, _reference.dfa_to_recognizer):
        with pytest.raises(CarrierBoundExceeded, match=r"^sort 0 has 126 elements, cap is 64$"):
            build(dfa)
