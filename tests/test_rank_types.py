"""The rank-m types and the rank test against their references in
``tests/_reference.py``: the types that intern an atom per pebble sequence,
and the rank test that closes the whole product before it looks for a
conflict."""

import dataclasses
import gc
import itertools
import random

import pytest

from emalg import algebra, logic
from emalg.automata import dfa_to_recognizer, parse_regex
from emalg.lawsuite import dual_decider_corpus
from emalg.logic import (
    TheoryBoundExceeded,
    _general_type,
    ef_equiv,
    ef_type,
    fo_definable,
    recognizes_at_rank,
    theory_algebra,
)
from emalg.syntactic import syntactic_algebra
from tests import _reference


def _assert_same_partition(words, m):
    """The new ids and the reference ids are in bijection on ``words``."""
    forward, backward = {}, {}
    for w in words:
        new, ref = _general_type(w, m), _reference.general_type(w, m)
        assert forward.setdefault(new, ref) == ref, (w, m)
        assert backward.setdefault(ref, new) == new, (w, m)


def test_types_partition_words_as_the_reference_does():
    ab = [w for n in range(1, 8) for w in itertools.product("ab", repeat=n)]
    for m in (0, 1, 2):
        _assert_same_partition(ab, m)
    _assert_same_partition([w for w in ab if len(w) <= 5], 3)
    rng = random.Random(12)
    abc = [tuple(rng.choices("abc", k=rng.randint(1, 8))) for _ in range(200)]
    for m in (0, 1, 2, 3):
        _assert_same_partition(abc, m)


def _outcome(build, alphabet, m):
    try:
        return build(alphabet, m)
    except TheoryBoundExceeded as exc:
        return str(exc)


def _package_build(alphabet, m):
    theta = theory_algebra(alphabet, m)
    return theta.reps, theta.letter_class, theta.algebra.mult


def test_theory_algebras_equal_the_reference_builds(monkeypatch):
    cases = [("a", m) for m in range(6)] + [
        ("ab", 0), ("ab", 1), ("abc", 1), ("abc", 2), ("ab", 2)
    ]
    typed = []  # the words the reference builds send to the general type

    def reference_type(word, m):
        typed.append((word, m))
        return _reference.general_type(word, m)

    monkeypatch.setattr(logic, "_general_type", reference_type)
    want = [_outcome(_reference.theory_algebra, *case) for case in cases]
    monkeypatch.undo()
    assert [_outcome(_package_build, *case) for case in cases] == want
    assert want[-2:] == ["more than 512 classes at rank 2"] * 2
    guard = [w for w, m in typed if m == 2]
    assert len(guard) > 3000
    _assert_same_partition(guard, 2)


def _types_met(monkeypatch, module, build, alphabet):
    """The rank-2 types that ``build`` computes, in order, until it fails
    the class guard."""
    met = []
    ef = logic.ef_type

    def recorded(w, m):
        met.append(ef(w, m))
        return met[-1]

    monkeypatch.setattr(module, "ef_type", recorded)
    with pytest.raises(TheoryBoundExceeded, match="more than 512 classes at rank 2"):
        build(alphabet, 2)
    monkeypatch.undo()
    return met


def test_the_rank_2_guards_type_each_class_and_letter_once(monkeypatch):
    # the rank-2 theories are the first that do not commute, and no build
    # of one completes: the guard builds must still meet their classes in
    # the reference builds' order
    for alphabet in ("ab", "abc"):
        met = _types_met(monkeypatch, logic, theory_algebra, alphabet)
        assert len(met) <= len(alphabet) * (logic.MAX_THEORY_CLASSES + 1)
        want = _types_met(monkeypatch, _reference, _reference.theory_algebra, alphabet)
        assert list(dict.fromkeys(met)) == list(dict.fromkeys(want))


# every build that completes: 'a' at ranks 0-6, and the letter sets at the
# ranks where their classes stay within the class guard
COMPLETING = [("a", m) for m in range(7)] + [
    ("ab", 0), ("ab", 1), ("abc", 0), ("abc", 1), ("abcd", 1), ("abcdefghi", 1)
]


def test_each_representative_drops_its_last_letter_into_a_shorter_one():
    # rank-m equivalence is a right congruence, so a shortest word of a
    # class without its last letter is a shortest word of its own class:
    # no representative is longer than the class count
    for alphabet, m in COMPLETING:
        theta = theory_algebra(alphabet, m)
        for r in theta.reps.values():
            if len(r) >= 2:
                shorter = theta.reps[theta.class_of(r[:-1])]
                assert len(shorter) == len(r) - 1, (alphabet, m, r)
        assert max(map(len, theta.reps.values())) <= theta.size()


# the completing builds small enough to enumerate every word up to the
# longest representative
ENUMERABLE = [case for case in COMPLETING if case != ("abcdefghi", 1)]


def test_shortlex_enumeration_meets_the_classes_in_id_order_at_their_representatives():
    # rank-m equivalence is a right congruence, so the breadth-first build
    # meets the classes in shortlex order of their shortest words
    for alphabet, m in ENUMERABLE:
        theta = theory_algebra(alphabet, m)
        longest = max(map(len, theta.reps.values()))
        first_met = {}
        for n in range(1, longest + 1):
            for w in itertools.product(theta.alphabet, repeat=n):
                first_met.setdefault(theta.classify(w), w)
        assert list(first_met) == list(range(theta.size())), (alphabet, m)
        assert first_met == theta.reps, (alphabet, m)


def test_a_completing_build_types_each_letter_and_each_class_generator_step_once(monkeypatch):
    # the letters, then each class extended by the letter of each generator
    # class in (class, generator) order, then the seeded check's samples
    for alphabet, m in ENUMERABLE:
        typed = []
        ef = logic.ef_type

        def recorded(w, rank):
            typed.append(tuple(w))
            return ef(w, rank)

        monkeypatch.setattr(logic, "ef_type", recorded)
        theta = theory_algebra(alphabet, m)
        monkeypatch.undo()
        letters = [(c,) for c in theta.alphabet]
        gens = [theta.reps[k][0] for k in sorted(set(theta.letter_class.values()))]
        steps = [theta.reps[k] + (c,) for k in range(theta.size()) for c in gens]
        assert typed[: len(letters) + len(steps)] == letters + steps, (alphabet, m)
        assert len(typed) == len(letters) + len(steps) + logic.THEORY_CHECK_SAMPLES


def test_nine_letters_complete_at_rank_1_past_the_old_representative_cap():
    # the rank-1 classes over k letters are the 2^k - 1 nonempty letter
    # sets, and their representatives have up to k letters, past the
    # 2^(1+2) = 8 that the representative cap allowed; ten letters fail
    # the class guard (tests/test_cli.py)
    theta = theory_algebra("abcdefghi", 1)
    assert theta.size() == 511
    assert max(map(len, theta.reps.values())) == 9


def _sweep_languages():
    for name, rx, alphabet, *_ in dual_decider_corpus():
        yield name, parse_regex(rx, alphabet)
    for k in range(1, 5):
        for p in range(1, 6):
            yield f"a^{k}(a^{p})*", parse_regex("a" * k + "(" + "a" * p + ")*")


def _rank_outcome(test, syn, m):
    try:
        return test(syn, m)
    except TheoryBoundExceeded as exc:
        return str(exc)


def test_rank_tests_equal_the_full_closure_reference():
    # over two letters every rank from 2 on fails its theory bound; ranks
    # 3 to 5 fail it too, after builds of about 0.2, 2 and 18 seconds
    # (Python 3.11, 2 cores), and the rank test only re-raises the
    # memoised failure
    for name, dfa in _sweep_languages():
        syn = syntactic_algebra(dfa_to_recognizer(dfa))
        ranks = range(6) if len(syn.letter_map) == 1 else range(3)
        for m in ranks:
            got = _rank_outcome(recognizes_at_rank, syn, m)
            assert got == _rank_outcome(_reference.recognizes_at_rank, syn, m), (name, m)


def _visits(syn, m):
    """The verdict of the rank test on ``syn`` and the number of pairs its
    walk visits: each visited pair reads the accepting set once."""
    visited = []

    class Counted(frozenset):
        def __contains__(self, s):
            visited.append(s)
            return super().__contains__(s)

    verdict = recognizes_at_rank(dataclasses.replace(syn, accepting=Counted(syn.accepting)), m)
    return verdict, len(visited)


def _closure_size(syn, m):
    theta = logic.cached_theory_algebra(syn.letter_map, m)
    seeds = [(theta.letter_class[c], syn.letter_map[c]) for c in theta.alphabet]
    return len(algebra.generated_tuples([theta.algebra, syn.syn_algebra], seeds))


def test_a_failing_rank_stops_before_the_closure_ends():
    syn = syntactic_algebra(dfa_to_recognizer(parse_regex("aaa(aaaaa)*")))
    verdict, visited = _visits(syn, 1)
    assert not verdict
    assert 0 < visited < _closure_size(syn, 1)
    # a rank that recognises the language walks the whole closure, each
    # pair once
    syn = syntactic_algebra(dfa_to_recognizer(parse_regex("(a|b)*a(a|b)*")))
    assert _visits(syn, 1) == (True, _closure_size(syn, 1))


def test_negative_ranks_are_value_errors():
    with pytest.raises(ValueError, match="negative"):
        ef_type("ab", -1)
    with pytest.raises(ValueError, match="negative"):
        ef_equiv("ab", "ba", -1)
    with pytest.raises(ValueError, match="negative"):
        theory_algebra("ab", -1)
    with pytest.raises(ValueError, match="negative"):
        fo_definable(parse_regex("a+"), rank_bound=-1)


def test_typing_a_word_leaves_no_garbage_for_the_cycle_collector():
    """The rank-m recursion is a module-level function, not a closure made
    anew per call (a closure that calls itself is a reference cycle), so
    the typed words free everything by reference counting alone."""
    rng = random.Random(5)
    words = [("a", *rng.choices("abc", k=rng.randint(0, 6)), "b") for _ in range(50)]
    gc.collect()
    gc.disable()
    try:
        for w in words:
            ef_type(w, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()
