"""The emalg benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload {laws,syn-large,decide-small} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; emalg is imported from its ``src``.  Every
pass runs in a fresh single-threaded interpreter (``worker.py``), one at a
time.  With ``--trace 0`` the run repeats whole passes over the
workload's op list until ``--seconds`` have gone by and the workload's
minimum number of passes is reached (``MIN_PASSES``), times a
few set-up-only interpreters before and after them, and reports the median
of each end-to-end metric over the passes (set-up: over every interpreter).  With ``--trace 1`` it runs one untraced
and one traced pass, reports the per-layer metrics of the traced one and
the tracing overhead, and requires both passes to reach the same verdicts.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 0
for a correct run, 1 when a verdict disagrees with the reference or a pass
broke, 2 when the checkout holds no emalg sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402
from worker import RESULT_PREFIX  # noqa: E402
from workloads import BUILDERS  # noqa: E402

WORKLOADS = tuple(BUILDERS)
SETUP_PROBES = 2  # set-up-only interpreters before and again after the passes
# syn-large's time sits in four ops of seconds each, so one pass is noisy;
# two passes halve the runs that land far out.  The others are steady at
# one pass, and laws alone takes about 20 s.
MIN_PASSES = {"laws": 1, "syn-large": 2, "decide-small": 1}
RUN_LIMIT_S = 170  # a run must end within 180 s
OP_KINDS = (
    "laws",
    "syn",
    "decompose",
    "check",
    "cover",
    "syntactic_algebra",
    "decide",
    "theory",
    "generated_membership",
)


class PassFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, trace: int, timeout: float, setup_only: bool = False) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--launched", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"a {workload} pass did not finish within {timeout:.0f} s") from exc
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith(RESULT_PREFIX)]
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1][len(RESULT_PREFIX):])


def _verdicts(one_pass: dict) -> list:
    return [[o["label"], o["verdict"]] for o in one_pass["ops"]]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    summaries = [stats.pass_summary(p["ops"]) for p in passes]

    def med(key):
        return statistics.median([s[key] for s in summaries])

    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(med("wall_s"), "s"),
        "verdict_p50_ms": _metric(med("p50_ms"), "ms"),
        "verdict_tail_ms": _metric(med("tail_ms"), "ms"),
        "conclusive_share": _metric(med("conclusive_share"), "ratio"),
        "completed_share": _metric(1 - med("failed_share"), "ratio"),
        "peak_rss_mb": _metric(statistics.median([p["peak_rss_mb"] for p in passes]), "MB"),
    }
    shown = {
        "wall_raw_s": _metric(statistics.median([sum(o["raw_s"] for o in p["ops"]) for p in passes]), "s"),
        "failed_share": _metric(med("failed_share"), "ratio"),
        "wrong_verdicts": _metric(sum(s["wrong_verdicts"] for s in summaries), "count"),
        "verdict_tail_percentile": _metric(summaries[0]["tail_percentile"], "pct"),
        "verdict_samples": _metric(summaries[0]["samples"], "count"),
        "passes": _metric(len(passes), "count"),
    }
    return metrics, shown


def per_layer(untraced: dict, traced: dict) -> dict:
    metrics = {}
    for name, value in traced["layers"].items():
        metrics[name] = _metric(value, "s" if name.endswith("_s") else "count")
    for kind in OP_KINDS:
        total = sum((o["elapsed_s"] for o in traced["ops"] if o["kind"] == kind), 0.0)
        metrics[f"ops.{kind}.total_s"] = _metric(total, "s")
    # one pass over one pass: informational only, since run-to-run noise
    # (several percent) is larger than the tracing overhead it divides out
    ratio = stats.pass_summary(traced["ops"])["wall_s"] / stats.pass_summary(untraced["ops"])["wall_s"]
    metrics["trace.overhead_ratio"] = _metric(ratio, "ratio")
    return metrics


def print_ops(one_pass: dict) -> None:
    for o in one_pass["ops"]:
        mark = {True: "ok", False: "WRONG", None: "-"}[o["correct"]]
        print(f"  {o['elapsed_s'] * 1000:10.1f} ms  {o['status']:12s} {mark:5s}  {o['label']}")
        if o["detail"]:
            print(f"{'':32s}{o['detail'][:160]}")


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: its passes, its metrics (end-to-end, or per-layer when
    traced), the extra lines it prints, and the JSON result."""
    t_start = time.monotonic()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - t_start)

    if trace:
        untraced = run_worker(workload, seed, 0, remaining())
        traced = run_worker(workload, seed, 1, remaining())
        passes = [untraced, traced]
        metrics, shown = per_layer(untraced, traced), {}
    else:
        def probe_setups():
            return [
                run_worker(workload, seed, 0, remaining(), setup_only=True)["setup_s"]
                for _ in range(SETUP_PROBES)
            ]

        setups = probe_setups()
        passes = []
        while True:
            t_pass = time.monotonic()
            passes.append(run_worker(workload, seed, 0, remaining()))
            last = time.monotonic() - t_pass
            done = len(passes) >= MIN_PASSES[workload] and time.monotonic() - t_start >= seconds
            if done or remaining() < 1.5 * last:
                break
        setups += probe_setups() + [p["setup_s"] for p in passes]
        metrics, shown = end_to_end(passes, setups)

    agree = all(_verdicts(p) == _verdicts(passes[0]) for p in passes)
    wrong = sum(stats.pass_summary(p["ops"])["wrong_verdicts"] for p in passes)
    result = {
        "correct": agree and wrong == 0,
        "attempted": sum(len(p["ops"]) for p in passes),
        "failed": sum(stats.pass_summary(p["ops"])["failed"] for p in passes),
        "metrics": metrics,
    }
    return {"passes": passes, "agree": agree, "shown": shown, "result": result}


def sources_present() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "emalg", "__init__.py"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not sources_present():
        print(f"no emalg sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        run = measure(args.workload, args.seed, args.seconds, args.trace)
    except PassFailed as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1

    result = run["result"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  passes {len(run['passes'])}")
    print_ops(run["passes"][-1])
    if not run["agree"]:
        print("verdicts differ between passes of the same inputs")
    for name, m in list(result["metrics"].items()) + list(run["shown"].items()):
        print(f"{name:48s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
