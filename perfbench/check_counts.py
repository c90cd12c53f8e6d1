#!/usr/bin/env python3
"""Check that two traced runs of one workload give identical work counts.

    python3 perfbench/check_counts.py [WORKLOAD] [SEED]

Runs the workload twice under perfbench/tracer.py and compares every count
and numerics readout of the traced run; exits 1 if any differs.
"""

import json
import sys

import run


def traced_counts(workload: str, seed: int, tag: str) -> dict:
    out = run.WORK / "check-counts" / tag
    att = run.launch(run.child_cmd(workload, seed, out, traced=True), out)
    if att.code != 0:
        raise RuntimeError(f"traced run exited with {att.code}; see {out}")
    _, counts = run.layer_readout(json.loads((out / "trace.json").read_text()))
    return counts


def main(argv) -> int:
    workload = argv[0] if argv else "scaling"
    seed = int(argv[1]) if len(argv) > 1 else 0
    first = traced_counts(workload, seed, "first")
    second = traced_counts(workload, seed, "second")
    diff = sorted(k for k in first if first[k] != second.get(k))
    for k in sorted(first):
        print(f"{k:32s} {first[k]!r:>24} {second.get(k)!r:>24}")
    if diff or set(first) != set(second):
        print(f"FAIL: counts differ: {diff}")
        return 1
    print(f"ok: {len(first)} counts repeat exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
