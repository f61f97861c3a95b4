"""The rank-m types and the rank test against their references in
``tests/_reference.py``: the types that intern an atom per pebble sequence,
and the rank test that closes the whole product before it looks for a
conflict."""

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


def _outcome(alphabet, m):
    try:
        theta = theory_algebra(alphabet, m)
    except TheoryBoundExceeded as exc:
        return str(exc)
    return theta.reps, theta.letter_class, theta.algebra.mult


def test_theory_algebras_equal_the_reference_builds(monkeypatch):
    cases = [("a", m) for m in range(6)] + [("ab", 0), ("ab", 1), ("abc", 1), ("ab", 2)]
    typed = []  # the words the reference builds send to the general type

    def reference_type(word, m):
        typed.append((word, m))
        return _reference.general_type(word, m)

    monkeypatch.setattr(logic, "_general_type", reference_type)
    want = [_outcome(*case) for case in cases]
    monkeypatch.undo()
    assert [_outcome(*case) for case in cases] == want
    assert want[-1] == "more than 512 classes at rank 2"
    guard = [w for w, m in typed if m == 2]
    assert len(guard) > 3000
    _assert_same_partition(guard, 2)


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
    # 3 to 5 fail it too, after builds of about 1, 9 and 70 seconds, and
    # the rank test only re-raises the memoised failure
    for name, dfa in _sweep_languages():
        syn = syntactic_algebra(dfa_to_recognizer(dfa))
        ranks = range(6) if len(syn.letter_map) == 1 else range(3)
        for m in ranks:
            got = _rank_outcome(recognizes_at_rank, syn, m)
            assert got == _rank_outcome(_reference.recognizes_at_rank, syn, m), (name, m)


def test_a_failing_rank_stops_before_the_closure_ends(monkeypatch):
    syn = syntactic_algebra(dfa_to_recognizer(parse_regex("aaa(aaaaa)*")))
    consumed = []

    def counted(algs, seeds):
        for t in algebra._grow_tuples(algs, seeds):
            consumed.append(t)
            yield t

    monkeypatch.setattr(logic, "_grow_tuples", counted)
    assert not recognizes_at_rank(syn, 1)
    theta = logic.cached_theory_algebra("a", 1)
    seeds = [(theta.letter_class["a"], syn.letter_map["a"])]
    whole = algebra.generated_tuples([theta.algebra, syn.syn_algebra], seeds)
    assert len(consumed) < len(whole)


def test_negative_ranks_are_value_errors():
    with pytest.raises(ValueError, match="negative"):
        ef_type("ab", -1)
    with pytest.raises(ValueError, match="negative"):
        ef_equiv("ab", "ba", -1)
    with pytest.raises(ValueError, match="negative"):
        theory_algebra("ab", -1)
    with pytest.raises(ValueError, match="negative"):
        fo_definable(parse_regex("a+"), rank_bound=-1)
