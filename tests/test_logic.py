import contextlib
import io
import itertools
import json
import random

import pytest

from emalg import cli, logic
from emalg.algebra import word_algebra
from emalg.automata import dfa_to_recognizer, parse_regex
from emalg.core import SortedOrderedSet
from emalg.logic import (
    TheoryBoundExceeded,
    _general_type,
    _unary_threshold,
    cached_theory_algebra,
    definably_embedded,
    ef_equiv,
    ef_type,
    fo_definable,
    is_definable_algebra,
    recognizes_at_rank,
    theory_algebra,
)
from emalg.monads import SORT_WORD, Word
from emalg.profinite import identity_library, satisfies_all
from emalg.syntactic import syntactic_algebra


# -- an independent game oracle ------------------------------------------------


def _atom_match(u, pu, v, pv):
    for i in range(len(pu)):
        if u[pu[i]] != v[pv[i]]:
            return False
        for j in range(len(pu)):
            du, dv = pu[j] - pu[i], pv[j] - pv[i]

            def code(d):
                if d == 0:
                    return 0
                if d == 1:
                    return 1
                if d == -1:
                    return 2
                return 3 if d > 1 else 4

            if code(du) != code(dv):
                return False
    return True


def naive_game(u, v, m, pu=(), pv=()):
    """Plain minimax search for the back-and-forth game; exponential, used
    only to certify the production implementation on small inputs."""
    if not _atom_match(u, pu, v, pv):
        return False
    if m == 0:
        return True
    for p in range(len(u)):
        if not any(naive_game(u, v, m - 1, pu + (p,), pv + (q,)) for q in range(len(v))):
            return False
    for q in range(len(v)):
        if not any(naive_game(u, v, m - 1, pu + (p,), pv + (q,)) for p in range(len(u))):
            return False
    return True


def test_ef_examples():
    assert ef_equiv("ab", "ab", 3)
    assert ef_equiv("ab", "ba", 1)
    assert not ef_equiv("ab", "ba", 2)
    # all nonempty unary words agree at rank one
    for i in range(1, 9):
        for j in range(1, 9):
            assert ef_equiv("a" * i, "a" * j, 1)


def test_ef_matches_naive_game_two_letters():
    words = [w for n in range(1, 6) for w in itertools.product("ab", repeat=n)]
    rng = random.Random(0)
    sample = rng.sample(words, 25)
    for m in (0, 1, 2):
        for u in sample:
            for v in sample:
                assert ef_equiv(u, v, m) == naive_game(u, v, m), (u, v, m)


def test_ef_matches_naive_game_three_rounds():
    words = [w for n in range(1, 5) for w in itertools.product("ab", repeat=n)]
    for u in words:
        for v in words:
            assert ef_equiv(u, v, 3) == naive_game(u, v, 3), (u, v)


def test_unary_threshold_matches_general_type():
    # the fast path must agree with the generic type computation
    for m in (1, 2, 3):
        for i in range(1, 17):
            for j in range(1, 17):
                fast = ef_equiv("a" * i, "a" * j, m)
                general = _general_type(tuple("a" * i), m) == _general_type(
                    tuple("a" * j), m
                )
                assert fast == general, (i, j, m)


def test_unary_threshold_values():
    # thresholds observed from the game: all equal at rank 1, then 5, 13
    assert _unary_threshold(1) == 1
    assert _unary_threshold(2) == 5
    assert _unary_threshold(3) == 13
    assert not ef_equiv("a" * 4, "a" * 5, 2)
    assert ef_equiv("a" * 5, "a" * 6, 2)
    assert not ef_equiv("a" * 12, "a" * 13, 3)
    assert ef_equiv("a" * 13, "a" * 14, 3)


def test_rank_refinement():
    words = ["a", "ab", "ba", "aab", "abab", "bb"]
    for u in words:
        for v in words:
            for m in (0, 1, 2):
                if ef_equiv(u, v, m + 1):
                    assert ef_equiv(u, v, m)


def test_unary_words_never_equal_mixed_words():
    for m in (1, 2, 3):
        assert not ef_equiv("aaa", "aab", m)
        assert not ef_equiv("a", "b", m)
    assert ef_equiv("aaa", "aab", 0)


def test_theory_sizes():
    assert theory_algebra("ab", 0).size() == 1
    th1 = theory_algebra("ab", 1)
    assert th1.size() == 3
    reps = sorted("".join(r) for r in th1.reps.values())
    assert reps == ["a", "ab", "b"]
    sizes = [theory_algebra("a", m).size() for m in range(6)]
    assert sizes == [1, 1, 5, 13, 29, 61]


def test_theory_bound_exceeded():
    with pytest.raises(TheoryBoundExceeded):
        theory_algebra("ab", 2)


@pytest.fixture
def fresh_theory_memo():
    """Clear the process-wide theory memo around a test, so that the tests
    run before it cannot change what it observes."""
    logic._theory_outcome.cache_clear()
    yield
    logic._theory_outcome.cache_clear()


def test_theory_outcomes_are_built_once_bound_failures_included(fresh_theory_memo, monkeypatch):
    builds = []
    build = logic.theory_algebra

    def counted(alphabet, m, **kwargs):
        builds.append((alphabet, m))
        return build(alphabet, m, **kwargs)

    monkeypatch.setattr(logic, "theory_algebra", counted)
    for rx in ("(a|b)*aa(a|b)*", "(a|b)*ab"):
        v = fo_definable(parse_regex(rx))
        assert v.definable and v.inconclusive_rank and v.blocked_at_rank == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["theory", "2", "ba"])
    assert code == cli.EXIT_BOUND
    message = "more than 512 classes at rank 2"
    assert json.loads(out.getvalue()) == {"command": "theory", "error": message}
    # one build per rank, shared by both decisions and the command
    assert builds == [(("a", "b"), 0), (("a", "b"), 1), (("a", "b"), 2)]
    assert cached_theory_algebra("ba", 1) is cached_theory_algebra("ab", 1)
    # each memoised failure raises afresh; the memo keeps only the message,
    # no exception or traceback that would hold the failed build alive
    raised = []
    for _ in range(2):
        with pytest.raises(TheoryBoundExceeded, match=message) as info:
            cached_theory_algebra("ab", 2)
        raised.append(info.value)
    assert raised[0] is not raised[1]
    assert logic._theory_outcome(("a", "b"), 2) == message
    # the builder itself stays uncached
    with pytest.raises(TheoryBoundExceeded, match=message):
        logic.theory_algebra("ab", 2)
    assert builds[3:] == [("ab", 2)]


def test_a_class_guard_failure_answers_every_higher_rank(fresh_theory_memo, monkeypatch):
    """Rank-m classes refine rank-(m-1) ones, so once {a, b} fails the class
    guard at rank 2, rank 3 fails it too, with the message of a full build."""
    with pytest.raises(TheoryBoundExceeded) as full:
        theory_algebra("ab", 3)
    builds = []
    build = logic.theory_algebra

    def counted(alphabet, m, **kwargs):
        builds.append(m)
        return build(alphabet, m, **kwargs)

    monkeypatch.setattr(logic, "theory_algebra", counted)
    with pytest.raises(TheoryBoundExceeded) as short:
        cached_theory_algebra("ab", 3)
    assert str(short.value) == str(full.value) == "more than 512 classes at rank 3"
    assert builds == [0, 1, 2]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["theory", "5", "ab"])
    assert code == cli.EXIT_BOUND
    assert json.loads(out.getvalue()) == {
        "command": "theory",
        "error": "more than 512 classes at rank 5",
    }
    assert builds == [0, 1, 2]


def test_a_representative_length_failure_does_not_answer_higher_ranks(
    fresh_theory_memo, monkeypatch
):
    builds = []
    build = logic.theory_algebra

    def capped_at_rank_1(alphabet, m, **kwargs):
        builds.append(m)
        if m == 1:
            raise TheoryBoundExceeded("representative of length 9 exceeds the cap 8")
        return build(alphabet, m, **kwargs)

    monkeypatch.setattr(logic, "theory_algebra", capped_at_rank_1)
    assert cached_theory_algebra("a", 2).size() == 5
    assert builds == [0, 1, 2]


def test_theory_table_matches_concatenation():
    # every build that completes within the class guard
    builds = [("a", m) for m in range(6)] + [(a, m) for a in ("ab", "abc") for m in (0, 1)]
    for alphabet, m in builds:
        th = theory_algebra(alphabet, m)
        for i, ri in th.reps.items():
            for j, rj in th.reps.items():
                assert th.algebra.mult[(i, j)] == th.classify(ri + rj)


def test_compositionality_exhaustive():
    # rank-2 equivalence is a congruence: checked exhaustively on short words
    words = [w for n in range(1, 5) for w in itertools.product("ab", repeat=n)]
    classes: dict = {}
    for w in words:
        classes.setdefault(ef_type(w, 2), []).append(w)
    suffixes = [w for n in range(1, 4) for w in itertools.product("ab", repeat=n)]
    for members in classes.values():
        u0 = members[0]
        for u in members[1:3]:
            for v in suffixes:
                assert ef_equiv(u0 + v, u + v, 2)
                assert ef_equiv(v + u0, v + u, 2)


def test_recognizes_at_rank():
    assert recognizes_at_rank(parse_regex("(a|b)+"), 0)
    assert not recognizes_at_rank(parse_regex("(a|b)*a(a|b)*"), 0)
    assert recognizes_at_rank(parse_regex("(a|b)*a(a|b)*"), 1)
    for m in range(6):
        assert not recognizes_at_rank(parse_regex("(aa)+"), m)
    # the two-letter rank-2 theory is out of desk range: the guard must fire
    with pytest.raises(TheoryBoundExceeded):
        recognizes_at_rank(parse_regex("(a|b)*aa(a|b)*"), 2)


def test_fo_definable_verdicts():
    v = fo_definable(parse_regex("(a|b)+"))
    assert v.definable and v.witness_rank == 0
    v = fo_definable(parse_regex("(aa)+"))
    assert not v.definable and v.counterexample is not None
    ineq, beta = v.counterexample
    assert ineq == "x^w x <= x^w"
    v = fo_definable(parse_regex("aaaaaa+"))
    assert v.definable and v.witness_rank == 3
    # contains-aa: the inequalities decide it, the rank sweep hits the
    # theory-size wall at rank two and stays flagged
    v = fo_definable(parse_regex("(a|b)*aa(a|b)*"))
    assert v.definable and v.aperiodic
    assert v.inconclusive_rank and v.blocked_at_rank == 2


def test_verdict_evidence_is_recheckable():
    from emalg.profinite import eval_term, parse_inequalities

    v = fo_definable(parse_regex("(aa)+"))
    ineq_text, beta = v.counterexample
    syn = syntactic_algebra(dfa_to_recognizer(parse_regex("(aa)+")))
    ineq = parse_inequalities(ineq_text)[0]
    lhs = eval_term(syn.syn_algebra, beta, ineq.lhs)
    rhs = eval_term(syn.syn_algebra, beta, ineq.rhs)
    assert not syn.syn_algebra.carrier.leq(lhs, rhs)
    # and a positive witness replays through direct rank recognition
    v2 = fo_definable(parse_regex("aa+"))
    assert recognizes_at_rank(parse_regex("aa+"), v2.witness_rank)
    if v2.witness_rank > 0:
        assert not recognizes_at_rank(parse_regex("aa+"), v2.witness_rank - 1)


def test_definably_embedded():
    from emalg.algebra import one_element_algebra
    from emalg.monads import WORD

    one = one_element_algebra(WORD)
    assert definably_embedded(one, list(one.carrier))
    syn = syntactic_algebra(dfa_to_recognizer(parse_regex("(a|b)*aa(a|b)*")))
    letters = set(syn.letter_map.values())
    assert definably_embedded(syn.syn_algebra, letters)
    z2 = word_algebra(
        SortedOrderedSet({SORT_WORD: [0, 1]}),
        {(a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)},
    )
    assert not definably_embedded(z2, {1})


def test_is_definable_algebra_matches_aperiodicity():
    # the two independent routes must agree on every instance
    lib = identity_library()["APERIODIC"]
    syn_aa = syntactic_algebra(dfa_to_recognizer(parse_regex("(a|b)*aa(a|b)*")))
    z2 = word_algebra(
        SortedOrderedSet({SORT_WORD: [0, 1]}),
        {(a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)},
    )
    z3 = word_algebra(
        SortedOrderedSet({SORT_WORD: [0, 1, 2]}),
        {(a, b): (a + b) % 3 for a in (0, 1, 2) for b in (0, 1, 2)},
    )
    left_zero = word_algebra(
        SortedOrderedSet({SORT_WORD: ["p", "q"]}),
        {(a, b): a for a in ("p", "q") for b in ("p", "q")},
    )
    cases = [syn_aa.syn_algebra, z2, z3, left_zero]
    for alg in cases:
        assert is_definable_algebra(alg) == satisfies_all(alg, lib)[0]


def test_a_word_has_one_type_in_each_of_its_forms():
    # a string, a tuple, a list and a Word of the same letters are typed
    # alike, so ef_equiv and classify hand ef_type the word as it is
    for letters in ["a", "ab", "aab", "abba", "bab"]:
        for m in range(4):
            forms = [letters, tuple(letters), list(letters), Word(tuple(letters))]
            assert len({ef_type(w, m) for w in forms}) == 1, (letters, m)
            assert all(ef_equiv(w, letters, m) for w in forms)
    th = theory_algebra("ab", 1)
    for w in ["a", "ab", "bba"]:
        assert th.classify(Word(tuple(w))) == th.classify(w) == th.classify(tuple(w))

