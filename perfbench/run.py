#!/usr/bin/env python3
"""Outside-in benchmark of the ymeps command-line sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each attempt is a fresh `python -u -m ymeps.harness ...` process importing
the checkout's `src/`.  Its timings are read from outside: launch and exit
times, the arrival time of each unbuffered `sweep point k/N` and `check ...`
line, and the child's rusage from wait4.  Attempts repeat while the next one
is expected to end within --seconds; at least one runs.  Before them, a few
set-up probes are launched and stopped at their first `sweep point` line.

With --trace 1 every attempt is a pair: one run under perfbench/tracer.py,
which wraps each layer's entry points, and one untraced run, so the tracing
overhead is their difference.

Every attempt is checked: exit code 0, verdict column and values equal to the
reference CSV committed from the seed commit, and CSV/SVG bytes identical to
those of the first run of the same source in this checkout.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  Everything the benchmark writes goes under
.bench_build/perfbench in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = BENCH / "reference"

EPS_LIST = "2^-4,2^-5,2^-6,2^-7"
# The benchmark seed picks one of this many committed test-field families.
REFERENCE_SEEDS = 8

# stem: the CSV/SVG file name the command writes; seeded: whether its output
# depends on --seed (then each cli seed has its own reference CSV).
WORKLOADS = {
    "scaling": {"args": ["verify-scaling", "--eps-list", EPS_LIST],
                "stem": "scaling", "seeded": False},
    "dual-norms": {"args": ["verify-lemma", "3.7", "--eps-list", EPS_LIST,
                            "--n-test", "16"],
                   "stem": "lemma_3_7", "seeded": True},
    "basis-flow": {"args": ["verify-lemma", "3.10", "--eps-list", EPS_LIST],
                   "stem": "lemma_3_10", "seeded": False},
}

SETUP_PROBES = 10
# One BLAS thread: the same configuration on any core count, and cpu_s above
# wall_s then shows parallelism the program itself added.
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 600.0    # a child still running then is killed and fails
# A value may move by 1e-10 of itself plus 1e-10 of the largest value in the
# same table at the same eps.  The second term keeps round-off-level entries
# (Gram and five-term residuals, null pairings) from failing on a change of
# summation order while holding every leading quantity to 1e-10 relative.
VALUE_RTOL = 1e-10


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = BLAS_THREADS
    return env


def cli_argv(workload: str, seed: int, out_dir: Path) -> list:
    return WORKLOADS[workload]["args"] + [
        "--seed", str(seed % REFERENCE_SEEDS), "--out", str(out_dir)]


def child_cmd(workload: str, seed: int, out_dir: Path, traced=False) -> list:
    """The child's command line; a traced child writes out_dir/trace.json."""
    args = cli_argv(workload, seed, out_dir)
    if traced:
        return [sys.executable, "-u", str(BENCH / "tracer.py"),
                str(out_dir / "trace.json"), "--"] + args
    return [sys.executable, "-u", "-m", "ymeps.harness"] + args


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# one child process


@dataclass
class Attempt:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    setup: float | None = None
    points: list = field(default_factory=list)
    out_dir: Path | None = None
    problems: list = field(default_factory=list)


def launch(cmd, out_dir: Path, probe=False) -> Attempt:
    """Run cmd to completion (or, for a probe, to its first sweep line)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    starts, check_at = [], None
    with open(out_dir / "stderr.txt", "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err, text=True)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            for line in proc.stdout:
                t = time.perf_counter() - t0
                if line.startswith("sweep point "):
                    starts.append(t)
                    if probe:
                        proc.terminate()
                        break
                elif line.startswith("check ") and check_at is None:
                    check_at = t
            for _ in proc.stdout:
                pass
        finally:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
    att = Attempt(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, out_dir=out_dir)
    if starts:
        att.setup = starts[0]
    if check_at is not None:
        bounds = starts + [check_at]
        att.points = [b - a for a, b in zip(bounds, bounds[1:])]
    return att


# ---------------------------------------------------------------------------
# correctness


def parse_csv(text: str):
    lines = text.splitlines()
    return lines[0], [ln.split(",") for ln in lines[1:]]


def _close(a: str, b: str, scale: float) -> bool:
    if a == b:
        return True
    if not a or not b:
        return False
    x, y = float(a), float(b)
    return abs(x - y) <= VALUE_RTOL * (abs(y) + scale)


def compare_to_reference(text: str, ref: str) -> list:
    """Problems found comparing a verdict CSV with its reference."""
    head, rows = parse_csv(text)
    ref_head, ref_rows = parse_csv(ref)
    if head != ref_head:
        return [f"header {head!r} differs from the reference"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    scale = defaultdict(float)
    for want in ref_rows:
        if want[3]:
            scale[want[0], want[2]] = max(scale[want[0], want[2]], abs(float(want[3])))
    problems = []
    for row, want in zip(rows, ref_rows):
        where = "/".join(want[:3])
        if row[:3] != want[:3]:
            problems.append(f"row {'/'.join(row[:3])} where reference has {where}")
        elif row[7] != want[7]:
            problems.append(f"{where}: verdict {row[7]}, reference {want[7]}")
        elif not _close(row[3], want[3], scale[want[0], want[2]]):
            problems.append(f"{where}: value {row[3]}, reference {want[3]}")
    return problems


def reference_path(workload: str, seed: int) -> Path:
    if WORKLOADS[workload]["seeded"]:
        return REFERENCE / f"{workload}-seed{seed % REFERENCE_SEEDS}.csv"
    return REFERENCE / f"{workload}.csv"


class OutputCheck:
    """Checks one workload's outputs; remembers the first run's bytes."""

    def __init__(self, workload: str, seed: int, digest: str):
        self.stem = WORKLOADS[workload]["stem"]
        self.reference = reference_path(workload, seed).read_text(encoding="utf-8")
        self.state = WORK / "first-outputs.json"
        self.key = f"{digest}:{workload}:{seed % REFERENCE_SEEDS}"

    def __call__(self, att: Attempt) -> list:
        if att.code != 0:
            return [f"exit code {att.code}"]
        try:
            csv = (att.out_dir / f"{self.stem}.csv").read_bytes()
            svg = (att.out_dir / f"{self.stem}.svg").read_bytes()
        except OSError as exc:
            return [f"missing output: {exc}"]
        problems = compare_to_reference(csv.decode("utf-8"), self.reference)
        got = {"csv": hashlib.sha256(csv).hexdigest(),
               "svg": hashlib.sha256(svg).hexdigest()}
        known = json.loads(self.state.read_text()) if self.state.exists() else {}
        first = known.setdefault(self.key, got)
        for kind in ("csv", "svg"):
            if got[kind] != first[kind]:
                problems.append(f"{kind} bytes differ from the first run "
                                "of this source")
        self.state.write_text(json.dumps(known, indent=1, sort_keys=True))
        return problems


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run

# metric name -> span name; "_s" metrics are summed self times.
SELF_TIMES = {
    "forms.rule_build_s": "forms.rule_build",
    "forms.wedge_bracket_s": "forms.wedge_bracket",
    "forms.star_s": "forms.star",
    "instanton.terms_jac_s": "instanton.terms_jac",
    "instanton.terms_value_s": "instanton.terms_value",
    "instanton.atom_eval_s": "instanton.atom_eval",
    "basis.arrays_s": "basis.arrays",
    "basis.grad_of_s": "basis.grad_of",
    "basis.gram_s": "basis.gram",
    "basis.mgs_s": "basis.mgs",
    "basis.inner_nf_s": "basis.inner_nf",
    "basis.fd_rebuild_s": "basis.fd_rebuild",
    "basis.project_perp_s": "basis.project_perp",
    "functionals.point_self_s": "functionals.point",
    "functionals.test_fields_s": "functionals.test_fields",
    "functionals.report_s": "functionals.report",
    "harness.emit_s": "harness.emit",
    "harness.command_self_s": "harness.command",
}
CALLS = {
    "forms.wedge_bracket_calls": "forms.wedge_bracket",
    "forms.star_calls": "forms.star",
    "basis.grad_of_calls": "basis.grad_of",
    "basis.inner_nf_calls": "basis.inner_nf",
}
# units of the counts and readouts that are not plain counts
COUNT_UNITS = {
    "instanton.atom_reuse": "ratio",
    "instanton.atom_out_mb": "MiB",
    "numerics.rule_self_check_max": "rel",
    "numerics.gram_cond_max": "ratio",
    "numerics.l310_halving_max": "rel",
}


def self_times(spans) -> tuple:
    """Per span name: summed self time (duration minus direct children) and calls."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    total, calls = defaultdict(float), Counter()
    for i, (name, start, end, _parent) in enumerate(spans):
        total[name] += (end - start) - covered[i]
        calls[name] += 1
    return total, calls


def layer_readout(trace: dict) -> tuple:
    """(timings, counts) of one traced run; counts must repeat exactly."""
    total, calls = self_times(trace["spans"])
    times = {m: total.get(s, 0.0) for m, s in SELF_TIMES.items()}
    c = trace["counts"]
    counts = {m: calls.get(s, 0) for m, s in CALLS.items()}
    counts.update({
        "forms.rule_builds": c["rule_builds"],
        "forms.rule_nodes": c["rule_nodes"],
        "instanton.atom_evals": c["atom_evals"],
        "instanton.atom_evals_unique": c["atom_evals_unique"],
        "instanton.atom_reuse": (c["atom_evals_unique"] / c["atom_evals"]
                                 if c["atom_evals"] else 0.0),
        "instanton.atom_out_mb": c["atom_out_bytes"] / 2 ** 20,
        "basis.grad_of_hits": c["grad_of_hits"],
    })
    counts.update({f"numerics.{k}": v for k, v in trace["numerics"].items()})
    return times, counts


# ---------------------------------------------------------------------------
# the run


def manifest(workload: str, seed: int, digest: str, argv: list) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True)
        sha = probe.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": nproc(),
        "git_sha": sha,
        "src_sha256": digest,
        "workload": workload,
        "seed": seed,
        "argv": argv,
    }


def median(xs):
    return statistics.median(xs) if xs else None


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    t_start = time.perf_counter()
    digest = src_digest()
    check = OutputCheck(workload, seed, digest)
    wdir = WORK / workload

    def cmd(out_dir, traced=False):
        return child_cmd(workload, seed, out_dir, traced)

    # set-up probes; the first one only warms caches (bytecode, page cache)
    setups = []
    for k in range(SETUP_PROBES + 1):
        probe = launch(cmd(wdir / "probe"), wdir / "probe", probe=True)
        if probe.setup is None:
            raise RuntimeError(f"set-up probe printed no sweep line "
                               f"(exit {probe.code}); see {wdir / 'probe'}")
        if k:
            setups.append(probe.setup)

    plain, traced, layer_times = [], [], defaultdict(list)
    counts, problems = None, []
    while True:
        round_start = time.perf_counter()
        if trace:
            att = launch(cmd(wdir / "traced", True), wdir / "traced")
            att.problems = check(att)
            if (att.out_dir / "trace.json").exists():
                data = json.loads((att.out_dir / "trace.json").read_text())
                times, got = layer_readout(data)
                for k, v in times.items():
                    layer_times[k].append(v)
                if counts is None:
                    counts = got
                elif got != counts:
                    att.problems.append("work counts differ between traced runs")
            traced.append(att)
        att = launch(cmd(wdir / "plain"), wdir / "plain")
        att.problems = check(att)
        plain.append(att)
        elapsed = time.perf_counter() - t_start
        if elapsed + (time.perf_counter() - round_start) > seconds:
            break

    attempts = traced + plain
    for att in attempts:
        if att.setup is not None:
            setups.append(att.setup)
        problems.extend(att.problems)
    failed = sum(1 for att in attempts if att.problems)
    ok = [a for a in plain if a.points]
    if not ok:
        raise RuntimeError("no attempt completed its sweep: "
                           + "; ".join(problems))
    if trace:
        if counts is None:
            raise RuntimeError("no traced attempt completed: "
                               + "; ".join(problems))
        metrics = {k: (median(v), "s") for k, v in layer_times.items()}
        for k, v in counts.items():
            metrics[k] = (v, COUNT_UNITS.get(k, "count"))
        traced_wall = median([a.wall for a in traced])
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (
            traced_wall - median([a.wall for a in plain]), "s")
    else:
        metrics = {
            "wall_s": (median([a.wall for a in ok]), "s"),
            "setup_s": (median(setups), "s"),
            "point_s.p50": (median([p for a in ok for p in a.points]), "s"),
            "point_s.max": (median([max(a.points) for a in ok]), "s"),
            "cpu_s": (median([a.cpu for a in ok]), "s"),
            "peak_rss_mb": (median([a.rss_mb for a in ok]), "MiB"),
        }
    return {
        "manifest": manifest(workload, seed, digest,
                             cli_argv(workload, seed, Path("OUT"))),
        "attempts": attempts,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "seconds": time.perf_counter() - t_start,
    }


def print_summary(workload: str, res: dict):
    n, bad = len(res["attempts"]), res["failed"]
    print(f"{workload}: {n} attempts, {bad} failed, failed_frac {bad / n:g}, "
          f"{res['seconds']:.1f} s")
    for att in res["attempts"]:
        print(f"  attempt {att.out_dir.name}: exit {att.code}, wall {att.wall:.3f} s, "
              f"cpu {att.cpu:.3f} s, points " + " ".join(f"{p:.3f}" for p in att.points))
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    for p in res["problems"]:
        print(f"  FAILED: {p}")
    print("manifest " + json.dumps(res["manifest"], sort_keys=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help=f"one of {sorted(WORKLOADS)}, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ymeps" / "harness.py").is_file():
        print(f"error: no ymeps sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        names = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, OSError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_summary(name, res)
        (WORK / f"manifest-{name}.json").write_text(
            json.dumps(res["manifest"], indent=1, sort_keys=True))
    if args.workload != "all":
        print(json.dumps({
            "correct": res["failed"] == 0,
            "attempted": len(res["attempts"]),
            "failed": res["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in res["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
