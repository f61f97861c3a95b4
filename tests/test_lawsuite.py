import itertools
import os
import pathlib
import random
import re
import subprocess
import sys
import threading
import time

import pytest

from emalg import algebra, lawsuite, syntactic
from emalg.algebra import product
from emalg.core import SortedOrderedSet, _members, is_upward_closed
from emalg.profinite import identity_library, satisfies_all
from emalg.lawsuite import (
    CheckResult,
    _all_preorders,
    _bounded_quotient_compatibility,
    check_monad_laws,
    run_all,
    small_semigroups,
)
from emalg.monads import (
    MixedWord,
    OmegaMonad,
    TreeMonad,
    UPWord,
    Var,
    Word,
    WordMonad,
    _node,
    _tree,
)
from emalg.syntactic import DerivativeDecomposition
from tests import _reference
from tests._samplers import rand_preorder, rand_transformation_algebra


def _brute_force_lattice(mult, elems):
    """Every nonempty subset that contains all products of its members."""
    out = set()
    for r in range(1, len(elems) + 1):
        for subset in itertools.combinations(elems, r):
            s = frozenset(subset)
            if all(mult[(a, b)] in s for a in s for b in s):
                out.add(s)
    return out


def _small_products():
    algs = small_semigroups(2)
    for i, a in enumerate(algs):
        for b in algs[i:]:
            if len(a.carrier) * len(b.carrier) <= 9:
                yield product([a, b])


# The details of the full battery.  Every check enumerates a declared scope
# in a fixed order, so these change only with a scope or a check.
BATTERY_DETAILS = {
    "monad-laws": (
        "word: 363 elements to size 5, 24492 nestings to sizes 2/2/2; "
        "omega: 444 elements to size 4, 11916 nestings to sizes 2/1/2; "
        "tree: 460 elements to size 4, 8730 nestings to sizes 2/1/2; 0 violations"
    ),
    "congruence-characterisations": (
        "every preorder of the 30 semigroups of at most 3 elements: "
        "717 preorders, 383 congruences, 0 disagreements"
    ),
    "terminality": (
        "every recognizer over ab onto a semigroup of at most 3 elements: "
        "418 recognizers, 0 failures"
    ),
    "syntactic-constants": "sizes 5 and 2, witnesses match",
    "derivative-decomposition": (
        "every up-set of the 4 corpus languages, words to length 6: "
        "24 targets, 2544 membership comparisons, 0 failures"
    ),
    "dual-decider-agreement": "12 languages, verdicts and minimal ranks stable",
    "theory-constants": "1 class at rank 0 and 3 at rank 1; table matches",
    "wilke-invariance": (
        "every u.v^w over ab with |u| <= 4 and 1 <= |v| <= 4: "
        "3 algebras x 930 pairs, 0 failures"
    ),
    "canonical-covers": "8 algebras covered and verified",
    "mod-closure": "25 aperiodic members of 33; closure holds",
}


# -- the forked worker and its serial fallback ------------------------------------

CHECKS = (
    "check_monad_laws", "check_congruence_characterisations", "check_terminality",
    "check_syntactic_constants", "check_decomposition", "check_dual_deciders",
    "check_theory_constants", "check_wilke_invariance", "check_canonical_covers",
    "check_mod_closure",
)


@pytest.fixture
def no_child_left():
    """After the test, this process has no child, reaped or not."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forked(monkeypatch):
    """Take the forked path whatever the machine, counting this process's forks."""
    forks, fork = [], os.fork
    monkeypatch.setattr(lawsuite, "_spare_core", lambda: True)
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    return forks


def _one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


def _no_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")


def _triples(results) -> list:
    return [(r.name, r.ok, r.detail) for r in results]


def _fake_battery(monkeypatch) -> None:
    """Every check replaced by an instant one that passes under its own name."""
    for name in CHECKS:
        monkeypatch.setattr(lawsuite, name, lambda name=name: CheckResult(name, True, "fake", 0.0))


def test_the_spare_core_test_reads_the_machine(monkeypatch):
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert lawsuite._spare_core() == (hasattr(os, "fork") and cpus >= 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(30,))
    other.start()
    try:
        assert not lawsuite._spare_core()
    finally:
        release.set()
        other.join(30)
    assert not other.is_alive()
    with monkeypatch.context() as m:
        _one_cpu(m)
        assert not lawsuite._spare_core()
    _no_fork(monkeypatch)
    assert not lawsuite._spare_core()


@pytest.mark.usefixtures("no_child_left")
def test_battery_details_are_pinned(monkeypatch):
    """On the forked path, and the same on both serial paths."""
    with monkeypatch.context() as m:
        forks = _forked(m)
        forked = _triples(run_all())
    assert forks == [os.getpid()]
    assert forked == [(name, True, detail) for name, detail in BATTERY_DETAILS.items()]
    for serial in (_one_cpu, _no_fork):
        with monkeypatch.context() as m:
            serial(m)
            assert _triples(run_all()) == forked


@pytest.mark.usefixtures("no_child_left")
def test_a_dead_worker_leaves_the_serial_results(monkeypatch):
    caller, check, here = os.getpid(), lawsuite.check_monad_laws, []

    def dies_in_the_worker():
        if os.getpid() != caller:
            os._exit(1)
        here.append(caller)
        return check()

    monkeypatch.setattr(lawsuite, "check_monad_laws", dies_in_the_worker)
    forks = _forked(monkeypatch)
    results = run_all()
    assert forks == here == [caller]
    assert {r.name: r.detail for r in results} == BATTERY_DETAILS
    assert all(r.ok for r in results)


class Broken(Exception):
    pass


@pytest.mark.usefixtures("no_child_left")
@pytest.mark.parametrize("broken", ["check_monad_laws", "check_terminality", "check_mod_closure"])
def test_a_raising_check_raises_as_in_the_serial_run(broken, monkeypatch):
    """In the worker's share or in the caller's, the exception is the one
    the serial run raises."""

    def raises():
        raise Broken(broken)

    _fake_battery(monkeypatch)
    monkeypatch.setattr(lawsuite, broken, raises)
    raised = []
    for path in (_forked, _one_cpu):
        with monkeypatch.context() as m:
            path(m)
            with pytest.raises(Broken) as info:
                run_all()
        raised.append(str(info.value))
    assert raised == [broken, broken]


@pytest.mark.usefixtures("no_child_left")
def test_an_interrupt_in_the_callers_share_kills_the_worker(monkeypatch):
    """The worker would run for a minute; the interrupt must not wait for it."""
    caller = os.getpid()

    def slow_in_the_worker():
        if os.getpid() != caller:
            time.sleep(60)
        return CheckResult("monad-laws", True, "fake", 0.0)

    def interrupted():
        raise KeyboardInterrupt

    _fake_battery(monkeypatch)
    monkeypatch.setattr(lawsuite, "check_monad_laws", slow_in_the_worker)
    monkeypatch.setattr(lawsuite, "check_dual_deciders", interrupted)
    forks = _forked(monkeypatch)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_all()
    assert forks == [caller]
    assert time.monotonic() - t0 < 30


def test_the_worker_leaves_the_callers_stdout_alone():
    """With stdout a pipe, and so block-buffered, the worker holds a copy of
    what the caller printed before the fork but not yet flushed.  Each
    report and each check's line must still come out once."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    code = "from emalg import cli\ncli.main(['theory', '1', 'ab'])\ncli.main(['laws', '--seed', '0'])\n"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert out.count('"command": "theory"') == out.count('"command": "laws"') == 1
    lines = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert [line.split()[:2] for line in lines] == [["PASS", name] for name in BATTERY_DETAILS]


def test_product_problems_match_a_direct_check_of_every_subalgebra():
    """mod-closure decides x^w x = x^w per element.  The reference checks
    the powers of each element, and every member of the brute-force
    subalgebra lattice is aperiodic exactly when no element is flagged.
    The products here include non-aperiodic factors, so both verdicts
    occur."""
    from emalg.lawsuite import _product_problems

    def aperiodic(mult, subset):
        for x in subset:
            e = x
            while mult[(e, e)] != e:
                e = mult[(e, x)]
            if mult[(e, x)] != e:
                return False
        return True

    found = 0
    for p in _small_products():
        elems = list(p.carrier)
        want = [
            "cyclic subalgebra of product not aperiodic"
            for x in elems
            if not aperiodic(p.mult, [x])
        ]
        got = _product_problems(p)
        assert got == want
        lattice = _brute_force_lattice(p.mult, elems)
        assert all(aperiodic(p.mult, s) for s in lattice) == (not got)
        found += bool(want)
    assert 0 < found < 39


def test_mod_closure_catches_a_non_aperiodic_product(monkeypatch):
    """With ``product`` answering Z2, a group, the per-element pass must
    flag the product."""
    z2 = next(
        a
        for a in small_semigroups(2)
        if len(a.carrier) == 2 and not satisfies_all(a, identity_library()["APERIODIC"])[0]
    )
    monkeypatch.setattr(lawsuite, "product", lambda algs: z2)
    result = lawsuite.check_mod_closure()
    assert not result.ok
    assert "cyclic subalgebra of product not aperiodic" in result.detail


# -- flat mutants that the monad-law check must catch ---------------------------


def _repeat_last_at_5(flat):
    def mutant(self, t):
        w = flat(self, t).labels
        return Word(w + w[-1:] if len(w) >= 5 else w)

    return mutant


def _reverse_at_outer_3(flat):
    def mutant(self, t):
        w = flat(self, t).labels
        return Word(w[::-1] if len(t.labels) >= 3 else w)

    return mutant


def _prefix_after_tail_run(tail_type):
    """Flattening u.t with t of ``tail_type`` puts t's own run before u's."""

    def mutate(flat):
        def mutant(self, t):
            if isinstance(t, MixedWord) and isinstance(t.tail, tail_type):
                run = flat(self, Word(t.prefix)).labels if t.prefix else ()
                tail = t.tail
                if tail_type is UPWord:
                    return UPWord(tail.prefix + run, tail.period)
                return MixedWord(tail.prefix + run, tail.tail)
            return flat(self, t)

        return mutant

    return mutate


def _swap_binary_children(flat):
    def mutant(self, t):
        r = flat(self, t)

        def go(n):
            if isinstance(n, Var):
                return n
            children = tuple([go(c) for c in n.children])
            return _node(n.label, children[::-1] if len(children) == 2 else children)

        return _tree(go(r.root), r.sort)

    return mutant


def _renumber_variables(flat):
    """The variables of the result renumbered in order of appearance."""

    def mutant(self, t):
        r = flat(self, t)
        seen = []

        def go(n):
            if isinstance(n, Var):
                seen.append(n)
                return Var(len(seen) - 1)
            return _node(n.label, tuple([go(c) for c in n.children]))

        return _tree(go(r.root), r.sort)

    return mutant


FLAT_MUTANTS = {
    "word-repeat-last-label-at-5": (WordMonad, _repeat_last_at_5),
    "word-reverse-at-outer-3": (WordMonad, _reverse_at_outer_3),
    "omega-upword-tail-run-first": (OmegaMonad, _prefix_after_tail_run(UPWord)),
    "omega-mixed-tail-run-first": (OmegaMonad, _prefix_after_tail_run(MixedWord)),
    "tree-swap-binary-children": (TreeMonad, _swap_binary_children),
    "tree-renumber-variables": (TreeMonad, _renumber_variables),
}


@pytest.mark.parametrize("name", sorted(FLAT_MUTANTS))
def test_monad_laws_catch_flat_mutants(name, monkeypatch):
    cls, mutate = FLAT_MUTANTS[name]
    monkeypatch.setattr(cls, "flat", mutate(cls.flat))
    result = check_monad_laws()
    assert not result.ok
    assert not result.detail.endswith("; 0 violations")


# -- library mutants that the scoped checks must catch --------------------------


def _raised_only_to(keep):
    """``algebra._violated`` raising each argument x only to the y of
    ``above[x]`` with ``keep(up, x, y)``."""

    def mutate(violated):
        def mutant(alg, up, above):
            return violated(alg, up, [[y for y in ys if keep(up, x, y)] for x, ys in enumerate(above)])

        return mutant

    return mutate


def _strictly_above(up, x) -> list:
    return [y for y in _members(up[x]) if not up[y] >> x & 1]


def _covers(up, x, y) -> bool:
    """Whether y's class covers x's: y is strictly above x, and nothing
    strictly above x is strictly below y."""
    above = _strictly_above(up, x)
    return y in above and not any(y in _strictly_above(up, z) for z in above)


def _first_positions_only(fibres):
    """``algebra._fibres`` with the fibres of the first argument position
    of each shape only, so that ``_violated`` raises no other argument."""

    def mutant(alg):
        runs, rest = algebra._sort_runs(alg.carrier), iter(fibres(alg))
        return [[next(rest) for _ in sorts][0] for _, sorts, result in alg.monad.signature if result in runs]

    return mutant


def _one_generator_short(generators):
    def mutant(alg):
        return generators(alg)[:-1]

    return mutant


def _drop_last_context(decompose):
    def mutant(syn, target):
        dec = decompose(syn, target)
        clauses = [(a, ctxs[:-1]) for a, ctxs in dec.clauses]
        return DerivativeDecomposition(dec.syn, dec.target, clauses)

    return mutant


def _omega_of_first_period_value(eval_element):
    """An omega period closed over the value of its first letter alone."""

    def mutant(alg, beta, t):
        if isinstance(t, UPWord):
            t = algebra._raw_up(t.prefix, t.period[:1])
        return eval_element(alg, beta, t)

    return mutant


# name -> (module, attribute, mutation, the check that must fail)
SCOPE_MUTANTS = {
    "congruence-no-class-mates-raised": (
        algebra, "_violated", _raised_only_to(lambda up, x, y: not up[y] >> x & 1),
        "check_congruence_characterisations",
    ),
    "congruence-strict-covers-raised-only": (
        algebra, "_violated", _raised_only_to(_covers), "check_congruence_characterisations"
    ),
    "congruence-first-position-raised-only": (
        algebra, "_fibres", _first_positions_only, "check_congruence_characterisations"
    ),
    "terminality-one-generator-short": (
        syntactic, "_generators", _one_generator_short, "check_terminality"
    ),
    "decomposition-drop-last-context": (
        lawsuite, "decompose_as_derivatives", _drop_last_context, "check_decomposition"
    ),
    "wilke-omega-of-first-period-value": (
        algebra, "eval_element", _omega_of_first_period_value, "check_wilke_invariance"
    ),
}


@pytest.mark.parametrize("name", sorted(SCOPE_MUTANTS))
def test_scoped_checks_catch_library_mutants(name, monkeypatch):
    module, attr, mutate, check = SCOPE_MUTANTS[name]
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    result = getattr(lawsuite, check)()
    assert not result.ok
    assert not re.search(r" 0 (failures|disagreements)$", result.detail)


# -- the bounded congruence definition and the preorder enumeration --------------


def _congruence_cases():
    """3,000 seeded (algebra, preorder) pairs, with up to 6 drawn pairs
    each, so that both verdicts occur."""
    for seed in range(6):
        rng = random.Random(seed)
        for _ in range(500):
            alg = rand_transformation_algebra(rng)
            yield alg, rand_preorder(rng, alg.carrier, extra_pairs=6)


def test_grown_compatibility_oracle_matches_the_word_enumeration():
    verdicts = []
    for alg, q in _congruence_cases():
        got = _bounded_quotient_compatibility(alg, q)
        assert got == _reference.bounded_quotient_compatibility(alg, q), (alg, q)
        verdicts.append(got)
    assert len(verdicts) == 3000
    assert 0 < sum(verdicts) < len(verdicts)


def test_compatibility_oracle_shares_no_code_with_the_library_walk(monkeypatch):
    """The congruence check compares three criteria; the bounded definition
    is only a witness if it answers without the library's walk."""

    def broken(*args, **kwargs):
        raise AssertionError("the library walk was called")

    cases = list(itertools.islice(_congruence_cases(), 200))
    want = [_reference.bounded_quotient_compatibility(alg, q) for alg, q in cases]
    monkeypatch.setattr(algebra, "_walk_rows", broken)
    monkeypatch.setattr(algebra, "is_congruence_ordering", broken)
    monkeypatch.setattr(lawsuite, "is_congruence_ordering", broken)
    assert [_bounded_quotient_compatibility(alg, q) for alg, q in cases] == want
    assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("n, count", [(1, 1), (2, 4), (3, 29), (4, 355)])
def test_all_preorders_counts_the_labelled_preorders(n, count):
    """OEIS A000798: the number of preorders on n labelled points."""
    carrier = SortedOrderedSet({0: list(range(n))})
    pairs = [q.pairs() for q in _all_preorders(carrier)]
    assert len(pairs) == len(set(pairs)) == count


def test_all_preorders_yields_the_mask_enumeration_sequence():
    for alg in small_semigroups(3):
        got = [q.pairs() for q in _all_preorders(alg.carrier)]
        assert got == [q.pairs() for q in _reference.all_preorders(alg.carrier)]


def test_up_sets_are_the_upward_closed_subsets_once_each():
    """The decomposition scope: every subset that is its own upward closure,
    on the ordered corpus carriers and a three-element chain."""
    chain = SortedOrderedSet({0: [0, 1, 2]}, [(0, 1), (1, 2)])
    carriers = [alg.carrier for alg in lawsuite.cover_corpus().values()] + [chain]
    for carrier in carriers:
        elems = list(carrier)
        subsets = itertools.chain.from_iterable(
            itertools.combinations(elems, r) for r in range(len(elems) + 1)
        )
        want = {frozenset(x) for x in subsets if is_upward_closed(carrier, x)}
        got = lawsuite._up_sets(carrier)
        assert len(got) == len(set(got)) and set(got) == want
    assert len(lawsuite._up_sets(chain)) == 4


def test_backtracking_yields_the_brute_force_semigroup_tables():
    """Same tables in the same order, so ``small_semigroups`` keeps its
    representatives: 1, 8 and 113 associative tables on 1, 2, 3 elements."""
    counts = []
    for n in range(1, 4):
        got = list(lawsuite._semigroup_tables(n))
        assert got == list(_reference.semigroup_tables(n))
        counts.append(len(got))
    assert counts == [1, 8, 113]
