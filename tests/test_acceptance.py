"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  The checks run once through the shared battery; run
with ``pytest -s tests/test_acceptance.py`` to see the lines, or use the
``emalg laws`` command for the same battery outside pytest.
"""

import time

from emalg.lawsuite import run_all

_RESULTS = {}
_TOTAL = None


def _results():
    global _TOTAL
    if not _RESULTS:
        t0 = time.perf_counter()
        for r in run_all():
            _RESULTS[r.name] = r
        _TOTAL = time.perf_counter() - t0
    return _RESULTS


def _criterion(name, extra=None):
    r = _results()[name]
    ok = r.ok and (extra is None or extra(r))
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({r.detail}; {r.seconds:.1f}s)")
    assert ok, r.detail
    return r


def test_monad_law_suite():
    r = _criterion("monad-laws", extra=lambda r: r.seconds < 10)
    assert "0 violations" in r.detail


def test_congruence_characterisation_agreement():
    r = _criterion("congruence-characterisations")
    assert "717 preorders" in r.detail and "0 disagreements" in r.detail


def test_terminality():
    r = _criterion("terminality")
    assert "418 recognizers" in r.detail and "0 failures" in r.detail


def test_syntactic_algebra_constants():
    _criterion("syntactic-constants")


def test_derivative_decomposition():
    r = _criterion("derivative-decomposition")
    assert "0 failures" in r.detail


def test_dual_decider_agreement():
    _criterion("dual-decider-agreement")


def test_theory_algebra_constants():
    _criterion("theory-constants")


def test_wilke_evaluation_invariance():
    r = _criterion("wilke-invariance")
    assert "0 failures" in r.detail


def test_canonical_covers():
    _criterion("canonical-covers")


def test_mod_closure():
    _criterion("mod-closure")


def test_full_suite_runtime():
    _results()
    ok = _TOTAL < 120
    print(f"ACCEPTANCE end-to-end-runtime: {'PASS' if ok else 'FAIL'} ({_TOTAL:.1f}s)")
    assert ok, f"law suite took {_TOTAL:.1f}s"
