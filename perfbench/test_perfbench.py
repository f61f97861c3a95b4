"""Unit tests for the benchmark's own helpers (no emalg import needed).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import os
import random
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# -- the tail-percentile rule ------------------------------------------------------


@pytest.mark.parametrize("n, p", [(11, 9), (20, 50), (25, 60), (62, 83), (135, 92), (1000, 99)])
def test_tail_percentile_leaves_ten_beyond(n, p):
    assert stats.tail_percentile(n) == p
    ordered = list(range(n))
    rank = ordered.index(stats.nearest_rank(ordered, p)) + 1
    assert n - rank >= 10
    # one percentile higher would leave fewer than ten beyond
    if p < 100:
        assert n - (ordered.index(stats.nearest_rank(ordered, p + 1)) + 1) < 10


@pytest.mark.parametrize("n", [1, 5, 10])
def test_too_few_ops_fall_back_to_the_maximum(n):
    assert stats.tail_percentile(n) is None
    times = [0.001 * (i + 1) for i in range(n)]
    out = stats.verdict_times(times)
    assert out["tail_ms"] == pytest.approx(1000 * max(times))
    assert out["tail_percentile"] == 100
    assert out["samples"] == n


def test_verdict_times_states_percentile_and_samples():
    times = [0.001 * (i + 1) for i in range(62)]
    out = stats.verdict_times(times)
    assert out["samples"] == 62
    assert out["tail_percentile"] == 83
    assert out["tail_ms"] == pytest.approx(52.0)  # the 11th slowest
    assert out["p50_ms"] == pytest.approx(31.5)


# -- failure versus inconclusive ---------------------------------------------------


@pytest.mark.parametrize(
    "rc, error, report, undecided, want",
    [
        (0, None, {"verdict": {"definable": True}, "evidence": {"inconclusive_rank": False}}, False, stats.CONCLUSIVE),
        (1, None, {"verdict": {"definable": False}, "evidence": {"inconclusive_rank": False}}, False, stats.CONCLUSIVE),
        (0, None, {"verdict": {"definable": True}, "evidence": {"inconclusive_rank": True}}, False, stats.INCONCLUSIVE),
        (2, None, {"command": "syn", "error": "sort 0 has 126 elements, cap is 64"}, False, stats.FAILED),
        (3, None, {"command": "theory", "error": "more than 512 classes at rank 2"}, False, stats.FAILED),
        (None, "AssertionError: the two deciders disagree", None, False, stats.FAILED),
        (None, None, None, True, stats.INCONCLUSIVE),
        (None, None, None, False, stats.CONCLUSIVE),
    ],
)
def test_classify(rc, error, report, undecided, want):
    assert stats.classify(rc, error, report, undecided) == want


def test_pass_summary_counts_shares_against_attempted():
    ops = [
        {"elapsed_s": 1.0, "status": stats.CONCLUSIVE, "correct": True},
        {"elapsed_s": 2.0, "status": stats.INCONCLUSIVE, "correct": True},
        {"elapsed_s": 3.0, "status": stats.FAILED, "correct": None},
        {"elapsed_s": 4.0, "status": stats.CONCLUSIVE, "correct": False},
    ]
    out = stats.pass_summary(ops)
    assert out["wall_s"] == 10.0
    assert out["attempted"] == 4 and out["failed"] == 1
    assert out["failed_share"] == 0.25
    assert out["conclusive_share"] == 0.5
    assert out["wrong_verdicts"] == 1


# -- self time of nested spans ---------------------------------------------------


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_wrapped_children():
    rec = tracer.Recorder(FakeClock(0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 10.0, 12.0))
    rec.enter("outer")  # 0
    rec.enter("inner")  # 1
    rec.enter("leaf")  # 2
    rec.exit()  # 4: leaf takes 2
    rec.exit()  # 5: inner takes 4, 2 of them its own
    rec.enter("inner")  # 6
    rec.exit(raised=True)  # 10: inner takes 4, all its own
    rec.exit()  # 12: outer takes 12, 8 of them in children
    assert rec.self_s == {"leaf": 2.0, "inner": 6.0, "outer": 4.0}
    assert rec.calls["inner"] == 2 and rec.raised["inner"] == 1
    assert sum(rec.self_s.values()) == 12.0


def test_self_time_of_recursive_spans_sums_to_the_outer_span():
    rec = tracer.Recorder(FakeClock(0.0, 1.0, 3.0, 7.0))
    rec.enter("f")
    rec.enter("f")
    rec.exit()  # inner f: 2
    rec.exit()  # outer f: 7, self 5
    assert rec.calls["f"] == 2
    assert rec.self_s["f"] == 7.0


# -- the tracer's install check ----------------------------------------------------


@pytest.fixture
def fake_package():
    """A package ``fakepkg`` whose module ``b`` imports ``a.work`` by name."""
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def work(x):
        return helper(x) + 1

    def helper(x):
        return 2 * x

    a.work, a.helper = work, helper
    b.work = a.work
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield a, b
    for name in mods:
        sys.modules.pop(name, None)


def test_install_rebinds_every_namespace(fake_package):
    a, b = fake_package
    rec = tracer.Recorder()
    tracer.install(rec, "fakepkg", {"a": ["work"]})
    assert a.work is b.work and a.work(3) == 7 and b.work(1) == 3
    assert rec.calls["a.work"] == 2


def test_install_fails_on_a_missing_function(fake_package):
    with pytest.raises(tracer.TracerError, match="does not exist"):
        tracer.install(tracer.Recorder(), "fakepkg", {"a": ["renamed_work"]})


def test_install_fails_when_a_table_keeps_the_original(fake_package):
    a, b = fake_package
    b.DISPATCH = {"work": a.work}
    with pytest.raises(tracer.TracerError, match="still unwrapped in fakepkg.b"):
        tracer.install(tracer.Recorder(), "fakepkg", {"a": ["work"]})


def test_install_fails_on_an_inherited_method(fake_package):
    a, _ = fake_package

    class Base:
        def flat(self):
            return 1

    class Child(Base):
        pass

    a.Child = Child
    with pytest.raises(tracer.TracerError, match="not defined on its class"):
        tracer.install(tracer.Recorder(), "fakepkg", {"a": ["Child.flat"]})


# -- oracles -----------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_suffix_semigroup_has_the_closed_form_size(k):
    elems, table = oracles.suffix_semigroup(k)
    assert len(elems) == oracles.family_size(k)
    assert oracles.is_aperiodic(elems, table)
    assert not oracles.is_commutative(elems, table)


def test_semilattice_test():
    chain = {(x, y): min(x, y) for x in range(3) for y in range(3)}
    cyclic = {(x, y): (x + y) % 2 for x in range(2) for y in range(2)}
    assert oracles.is_semilattice(range(3), chain)
    assert not oracles.is_semilattice(range(2), cyclic)
    assert not oracles.is_aperiodic(range(2), cyclic)


def test_omega_count_and_size():
    assert oracles.omega_count("ab", "b", 3) == 1
    assert oracles.omega_count("", "ba", 3) == oracles.INF
    assert oracles.omega_count("aaaa", "b", 2) == 2
    # "finitely many a" at cap 1: classes {no a, some a} and {finite, infinite}
    assert oracles.omega_family_size({0, 1}, 1) == 4


def test_tree_family_size_uses_the_period():
    assert oracles.tree_family_size({0, 2}, 4, 2) == 6
    assert oracles.tree_family_size({1}, 5, 2) == 15


# -- distinct inputs ---------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_decide_languages_are_distinct(seed):
    unary = workloads.unary_languages()
    binary = workloads.binary_languages(random.Random(seed))
    regexes = [rx for rx, _ in unary + binary]
    assert len(set(regexes)) == len(regexes) == 60
    assert sum(d for _, d in unary) == 20 and sum(d for _, d in binary) == 10


@pytest.mark.parametrize("values, n", [([0, 1], 2), ([0, 1, 2], 6), ([0, 1, 2, 3], 14)])
def test_proper_subsets_are_distinct_and_proper(values, n):
    subsets = workloads.proper_subsets(random.Random(0), values, n)
    assert len({frozenset(x) for x in subsets}) == n
    assert all(0 < len(x) < len(values) for x in subsets)
