"""The benchmark's committed reference CSVs against the command-line runs.

perfbench/run.py judges every benchmark attempt by comparing its verdict
CSV with perfbench/reference/; these tests make the same comparison with
the same functions, run in process, so a change that moves a verdict or a
value beyond run.py's tolerance fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from ymeps import harness

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py, loaded by path (perfbench is not a package); its
    dataclasses look their module up in sys.modules while it loads."""
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _problems(bench, workload, seed, out_dir) -> list:
    """run.py's problems with the workload's CSV at seed, run in process."""
    assert harness.run_command(bench.cli_argv(workload, seed, out_dir)) == 0
    csv = out_dir / f"{bench.WORKLOADS[workload]['stem']}.csv"
    reference = bench.reference_path(workload, seed)
    return bench.compare_to_reference(csv.read_text(encoding="utf-8"),
                                      reference.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload, seed", [("scaling", 0),
                                            ("dual-norms", 0),
                                            ("dual-norms", 7)])
def test_gated_workloads_match_their_reference(bench, workload, seed,
                                               tmp_path):
    assert _problems(bench, workload, seed, tmp_path) == []


def test_basis_flow_differs_from_its_reference_only_in_path_agreement(
        bench, tmp_path):
    # the reference holds the FD that rebuilt C at every shifted point,
    # whose gap to the analytic norm read 5e-11; the FD on the base point's
    # C reads round-off (about 1e-14), so exactly the four path_agreement
    # values differ, and every verdict and every other value is the same
    problems = _problems(bench, "basis-flow", 0, tmp_path)
    assert len(problems) == 4, problems
    assert all(p.startswith("3.10/path_agreement/") and ": value " in p
               for p in problems), problems
