#!/usr/bin/env python3
"""Write the reference verdict CSVs under perfbench/reference/ from the current source.

    python3 perfbench/make_reference.py [WORKLOAD ...]

The committed references come from the seed commit of the benchmark; rerun
this only when a change is meant to alter verdicts or values, and say so.
A seeded workload gets one reference per cli seed 0..REFERENCE_SEEDS-1.
"""

import shutil
import sys

import run


def main(names) -> int:
    for name in names or sorted(run.WORKLOADS):
        spec = run.WORKLOADS[name]
        for seed in range(run.REFERENCE_SEEDS) if spec["seeded"] else [0]:
            out = run.WORK / "reference" / name
            att = run.launch(run.child_cmd(name, seed, out), out)
            if att.code != 0:
                print(f"{name} seed {seed}: exit code {att.code}; see {out}",
                      file=sys.stderr)
                return 1
            dest = run.reference_path(name, seed)
            dest.parent.mkdir(exist_ok=True)
            shutil.copyfile(out / f"{spec['stem']}.csv", dest)
            print(f"{name} seed {seed}: {att.wall:.1f} s -> {dest.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
