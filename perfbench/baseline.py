"""Record a baseline: one untraced and one traced run of every workload.

    python3 perfbench/baseline.py > perfbench/baseline.json

Run from the root of a git checkout.  The baseline is seed 0, measured for
the ``run_seconds`` that BENCHMARK.json gives.  The output also records the
machine, the Python version, the CPU count and the commit, and lists every
op that failed or came back inconclusive, so that known bound failures
stay visible.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

import run
import stats

SEED = 0


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _not_conclusive(one_pass: dict) -> list:
    return [
        {"op": o["label"], "status": o["status"], "detail": o["detail"]}
        for o in one_pass["ops"]
        if o["status"] != stats.CONCLUSIVE
    ]


def main() -> int:
    if not run.sources_present():
        print("no emalg sources under src/", file=sys.stderr)
        return 2
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    out = {
        "commit": _commit(),
        "machine": {
            "cpu": _cpu_model(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "seed": SEED,
        "seconds": seconds,
        "workloads": {},
    }
    for workload in run.WORKLOADS:
        untraced = run.measure(workload, SEED, seconds, 0)
        traced = run.measure(workload, SEED, seconds, 1)
        out["workloads"][workload] = {
            "untraced": {
                "correct": untraced["result"]["correct"],
                "metrics": untraced["result"]["metrics"],
                "shown": untraced["shown"],
                "not_conclusive": _not_conclusive(untraced["passes"][-1]),
            },
            "traced": {
                "correct": traced["result"]["correct"],
                "metrics": traced["result"]["metrics"],
            },
        }
    json.dump(out, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
