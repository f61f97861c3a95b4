"""One pass of a workload in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  It imports emalg from
the checkout's ``src``, builds the workload's inputs from the seed, runs
every op once in order (traced or not), checks each verdict against the
benchmark's reference between ops, and prints one result line prefixed
with ``RESULT_PREFIX``.  With ``--setup-only`` it stops after set-up.
Times are in reference seconds (see ``speed.py``); the raw ones are kept
alongside.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback

import stats
import tracer
import workloads
from speed import SpeedClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULT_PREFIX = "PERFBENCH-RESULT "


def _import_emalg():
    sys.path.insert(0, SRC)
    import emalg
    import emalg.cli  # noqa: F401  (cli imports every other module)

    if os.path.dirname(os.path.dirname(os.path.abspath(emalg.__file__))) != SRC:
        raise SystemExit(f"emalg was imported from {emalg.__file__}, not from {SRC}")
    return emalg


def run_op(op, clock: SpeedClock) -> dict:
    error = raw = None
    since = clock.mark()
    t0 = clock.now()
    try:
        raw = op.invoke()
    except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    raw_s = clock.now() - t0
    elapsed = raw_s * clock.factor(since)
    outcome = workloads.Outcome(error=error) if error else op.finish(raw)
    status = stats.classify(outcome.rc, outcome.error, outcome.report, outcome.undecided)
    correct = None
    if status != stats.FAILED:
        try:
            correct = bool(op.expect(outcome))
        except Exception:  # an unreadable report is a wrong verdict
            correct = False
    if status == stats.FAILED:
        verdict = ["failed", outcome.rc if error is None else error.split(":")[0]]
        detail = error or json.dumps((outcome.report or {}).get("error"))
    else:
        verdict = op.verdict(outcome)
        detail = None
    return {
        "kind": op.kind,
        "label": op.label,
        "elapsed_s": elapsed,
        "raw_s": raw_s,
        "status": status,
        "correct": correct,
        "verdict": verdict,
        "detail": detail,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--launched", type=float, required=True, help="time.monotonic() at launch")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    clock = SpeedClock()
    clock.start()
    try:
        emalg = _import_emalg()
        os.makedirs(workdir, exist_ok=True)
        ops = workloads.build(emalg, args.workload, args.seed, workdir)
        setup_raw = time.monotonic() - args.launched - clock.stolen
        result = {"setup_s": setup_raw * clock.factor(0)}
        if not args.setup_only:
            rec = None
            if args.trace:
                rec = tracer.Recorder(clock.now)
                tracer.install(rec)
            records = [run_op(op, clock) for op in ops]
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["ops"] = records
            if rec is not None:
                result["layers"] = tracer.layer_metrics(rec)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(RESULT_PREFIX + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
