"""Command-line driver: config validation, exit codes, and report files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ymeps.functionals as functionals
from ymeps.functionals import EstimateReport, QuantityRow
from ymeps.instanton import (
    ParamQ,
    difference_b,
    extended_connection,
    glued_connection,
    inner_first,
    terms_value,
)
from ymeps.harness import (
    CSV_HEADER,
    ConfigError,
    SweepConfig,
    emit_outputs,
    fit_slope,
    load_config,
    main,
    parse_eps_list,
    report_csv,
    report_svg,
    run_command,
)


def test_fit_slope_reexported():
    assert fit_slope is functionals.fit_slope


# ---------------------------------------------------------------------------
# configuration


def test_sweep_config_defaults():
    cfg = SweepConfig()
    assert len(cfg.eps_list) == 6
    assert cfg.eps_list[0] == 2.0 ** -4
    assert cfg.D == 1.0
    qs = cfg.points()
    assert [q.eps for q in qs] == list(cfg.eps_list)


@pytest.mark.parametrize("kw,msg", [
    (dict(eps_list=(0.0625, 0.03125, 0.015625)), "at least 4"),
    (dict(eps_list=(0.0625, 0.03125, 0.04, 0.01)), "strictly decreasing"),
    (dict(eps_list=(0.0625, 0.03125, 0.0, -0.01)), "positive"),
    (dict(D=2.5), "outside"),
    (dict(D=0.5), "outside"),
    (dict(tol=-1.0), "tol"),
    (dict(n_test=0), "n_test"),
    (dict(pi2="bogus"), "strategy"),
])
def test_sweep_config_rejects(kw, msg):
    with pytest.raises(ConfigError, match=msg):
        SweepConfig(**kw)


def test_parse_eps_list_forms():
    assert parse_eps_list("0.0625, 0.03125") == [0.0625, 0.03125]
    assert parse_eps_list("2^-4 2^-5") == [2.0 ** -4, 2.0 ** -5]
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_eps_list("0.1, zebra")
    with pytest.raises(ConfigError, match="empty"):
        parse_eps_list("  ")


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[sweep]\n"
        "eps_list = 2^-4, 2^-5, 2^-6, 2^-7  # four points\n"
        "ratio_d = 1.25\n"
        "seed = 7\n"
        "n_test = 8\n"
        "[output]\n"
        "dir = results\n",
        encoding="utf-8")
    kw = load_config(str(path))
    cfg = SweepConfig(**kw)
    assert cfg.eps_list == (2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7)
    assert cfg.D == 1.25
    assert cfg.seed == 7
    assert cfg.n_test == 8
    assert cfg.out_dir == "results"


def test_load_config_rejects_unknown(tmp_path):
    bad_key = tmp_path / "a.ini"
    bad_key.write_text("[sweep]\nepz_list = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(str(bad_key))
    bad_section = tmp_path / "b.ini"
    bad_section.write_text("[swoop]\neps_list = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown config section"):
        load_config(str(bad_section))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.ini"))


# ---------------------------------------------------------------------------
# report emission


def _toy_reports():
    row1 = QuantityRow("norm_p1", [0.0625, 0.03125, 0.015625],
                       [64.0, 181.02, 512.0], -1.5, "slope-window",
                       slope=-1.5, residual=0.0004, verdict="pass",
                       note="window [-1.6, -1.4]")
    row2 = QuantityRow("pair_p1_p2", [0.0625, 0.03125, 0.015625],
                       [0.0, 0.0, 0.0], -1.5, "bounded",
                       verdict="pass", note="null within precision")
    return [EstimateReport("5.7", [row1, row2])]


def test_report_csv_layout():
    text = report_csv(_toy_reports())
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7
    assert lines[1] == "5.7,norm_p1,0.0625,64,-1.5,-1.5,0.0004,pass"
    assert lines[4] == "5.7,pair_p1_p2,0.0625,0,-1.5,,,pass"
    assert text.endswith("\n")


def test_report_csv_empty_is_header_only():
    assert report_csv([]) == CSV_HEADER + "\n"
    assert report_csv([EstimateReport("5.8", [])]) == CSV_HEADER + "\n"


def test_report_svg_content():
    svg = report_svg(_toy_reports(), "toy")
    assert svg.startswith("<svg ")
    assert 'width="1000" height="700"' in svg
    assert "polyline" in svg
    assert "stroke-dasharray" in svg      # fitted line for the slope row
    assert "norm_p1" in svg
    # the all-zero series cannot appear on a log plot
    assert "pair_p1_p2" not in svg
    assert svg == report_svg(_toy_reports(), "toy")


def test_report_svg_empty():
    svg = report_svg([], "empty")
    assert "no data" in svg
    assert svg.startswith("<svg ")


def test_emit_outputs_deterministic(tmp_path):
    d = str(tmp_path / "out")
    c1, s1 = emit_outputs(_toy_reports(), d, "case")
    blob_c = open(c1, "rb").read()
    blob_s = open(s1, "rb").read()
    c2, s2 = emit_outputs(_toy_reports(), d, "case")
    assert (c1, s1) == (c2, s2)
    assert open(c2, "rb").read() == blob_c
    assert open(s2, "rb").read() == blob_s
    assert os.path.basename(c1) == "case.csv"


# ---------------------------------------------------------------------------
# command-line behavior


def test_unknown_flag_exits_2(capsys):
    rc = run_command(["charge", "--frobnicate"])
    assert rc == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_2(capsys):
    assert run_command(["transcend"]) == 2


def test_bad_lemma_tag_exits_2(capsys):
    assert run_command(["verify-lemma", "9.9"]) == 2


def test_bad_sweep_flag_value_exits_2(capsys):
    rc = run_command(["verify-lemma", "5.7",
                      "--eps-list", "0.0625,0.03125,0.04,0.01"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["charge", "--eps", "-1"],
    ["charge", "--eps", "nan"],
    ["charge", "--eps", "0"],
    ["charge", "--eps", "inf"],
    ["verify-scaling", "--eps-list", "2^-4,nan,2^-6,2^-7"],
], ids=["minus-one", "nan", "zero", "inf", "nan-in-sweep"])
def test_bad_eps_exits_2_naming_eps(argv, tmp_path, capsys):
    # eps is checked before lam = sqrt(D eps) is derived from it, so no
    # invalid-value warning is raised and the message names eps, not lam
    rc = run_command(argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error: eps" in err and "must be positive and finite" in err
    assert "lam" not in err


def test_inadmissible_single_eps_exits_2(capsys):
    # eps so large that lam = sqrt(eps) leaves the admissible box
    rc = run_command(["charge", "--eps", "0.25"])
    assert rc == 2


@pytest.mark.parametrize("how", ["flag", "config"])
def test_inadmissible_first_sweep_point_exits_2(how, tmp_path, capsys):
    # eps = 0.5 gives lam = sqrt(0.5) > lam0: reported as a config error
    # naming the bound, not as a traceback
    eps = "0.5,0.25,0.125,0.0625"
    if how == "flag":
        argv = ["verify-scaling", "--eps-list", eps]
    else:
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(f"[sweep]\neps_list = {eps}\n")
        argv = ["verify-scaling", "--config", str(cfg)]
    rc = run_command(argv + ["--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "config error" in err and "lam0" in err


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("command", ["charge", "energy", "build-basis",
                                     "verify-scaling", "all"])
def test_non_positive_tol_exits_2_before_any_rule(command, value, tmp_path,
                                                  monkeypatch, capsys):
    def no_rule(self):
        raise AssertionError("a quadrature rule was built")

    monkeypatch.setattr("ymeps.forms.QuadratureRule.__post_init__", no_rule)
    rc = run_command([command, "--tol", value, "--out", str(tmp_path)])
    assert rc == 2
    assert "tol must be positive" in capsys.readouterr().err


def test_negative_seed_exits_2_before_any_rule(tmp_path, monkeypatch,
                                               capsys):
    def no_rule(self):
        raise AssertionError("a quadrature rule was built")

    monkeypatch.setattr("ymeps.forms.QuadratureRule.__post_init__", no_rule)
    rc = run_command(["verify-lemma", "3.7", "--eps-list",
                      "2^-4,2^-5,2^-6,2^-7", "--seed", "-1", "--n-test", "1",
                      "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "seed must be non-negative, got -1" in err


@pytest.mark.parametrize("text", [None, "[bogus]\nx = 1\n", "no header\n"])
@pytest.mark.parametrize("command", ["charge", "energy", "build-basis",
                                     "dump-field"])
def test_single_point_bad_config_exits_2(command, text, tmp_path, capsys):
    # a missing file, an unknown section and a file without a section header
    path = tmp_path / "run.ini"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    rc = run_command([command, "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


def test_single_point_commands_read_config(tmp_path, capsys):
    tight = tmp_path / "tight.ini"
    tight.write_text("[sweep]\ntol = 1e-15\n", encoding="utf-8")
    assert run_command(["charge", "--config", str(tight)]) == 3
    # an explicit flag overrides the file
    assert run_command(["charge", "--config", str(tight), "--tol", "1e-4"]) == 0
    cfg_dir, flag_dir = tmp_path / "from_config", tmp_path / "from_flag"
    out = tmp_path / "out.ini"
    out.write_text(f"[output]\ndir = {cfg_dir}\n", encoding="utf-8")
    for command in ("build-basis", "dump-field"):
        assert run_command([command, "--config", str(out),
                            "--eps", "0.0625"]) == 0
    assert sorted(p.name for p in cfg_dir.iterdir()) == [
        "basis_eps_0.0625.csv", "field_A_eps_0.0625.csv"]
    assert run_command(["dump-field", "--config", str(out), "--eps", "0.0625",
                        "--out", str(flag_dir)]) == 0
    assert [p.name for p in flag_dir.iterdir()] == ["field_A_eps_0.0625.csv"]


@pytest.mark.parametrize("argv,sub", [
    (["verify-lemma", "5.8", "--eps-list", "2^-4,2^-5,2^-6,2^-7"], "sub"),
    (["build-basis", "--eps", "0.0625"], None),
    (["dump-field", "--eps", "0.0625"], None),
])
def test_unusable_out_dir_exits_2_before_computing(argv, sub, tmp_path,
                                                   monkeypatch, capsys):
    # a regular file where the directory (or its parent) should be
    def no_rule(self):
        raise AssertionError("a quadrature rule was built")

    monkeypatch.setattr("ymeps.forms.QuadratureRule.__post_init__", no_rule)
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    out = blocker / sub if sub else blocker
    rc = run_command(argv + ["--out", str(out)])
    cap = capsys.readouterr()
    assert rc == 2
    assert "sweep point" not in cap.out
    assert "config error" in cap.err and str(out) in cap.err


def test_help_exits_0(capsys):
    assert run_command(["--help"]) == 0
    assert "verify-lemma" in capsys.readouterr().out


def test_main_propagates_exit(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["ymeps", "charge", "--frobnicate"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2


def test_too_tight_tolerance_exits_3(capsys):
    rc = run_command(["charge", "--tol", "1e-15"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_charge_command_passes(capsys):
    rc = run_command(["charge"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "charge" in out and "pass" in out


def test_dump_field_writes_grid(tmp_path, capsys):
    rc = run_command(["dump-field", "--field", "b", "--out", str(tmp_path)])
    assert rc == 0
    files = list(tmp_path.glob("field_b_*.csv"))
    assert len(files) == 1
    lines = files[0].read_text().splitlines()
    assert len(lines) == 1 + 4 * 41 * 41
    assert lines[0] == "x0,x1,x2,x3,component-index,e1,e2,e3"
    # each grid point contributes one row per dx^mu component
    first = lines[1].split(",")
    assert len(first) == 8 and first[4] == "0"


@pytest.mark.parametrize("name", ["A", "Atilde", "b"])
def test_dump_field_rows_are_the_pointwise_term_values(name, tmp_path, capsys):
    # row 4 r + mu holds grid point r and the dx^mu coefficients on e1..e3,
    # each point evaluated on its own from the term list of its chart
    make = {"A": glued_connection, "Atilde": extended_connection,
            "b": difference_b}[name]
    assert run_command(["dump-field", "--field", name, "--eps", "0.0625",
                        "--out", str(tmp_path)]) == 0
    q = ParamQ.default(2.0 ** -4)
    field = make(q)
    rows = np.loadtxt(tmp_path / f"field_{name}_eps_0.0625.csv",
                      delimiter=",", skiprows=1)
    span = np.linspace(-0.5, 0.5, 41)
    grid = np.zeros((41 * 41, 4))
    grid[:, :2] = np.stack(np.meshgrid(span, span, indexing="ij"),
                           axis=-1).reshape(-1, 2)
    assert np.array_equal(rows[:, 4], np.tile(np.arange(4.0), 41 * 41))
    assert np.allclose(rows[:, :4], np.repeat(grid, 4, axis=0), rtol=0,
                       atol=1e-12)
    inner = np.linalg.norm(grid, axis=1) < q.lam / 4
    assert inner.any() and not inner.all()
    want = np.stack([
        terms_value(field.inner_terms if i else field.outer_terms,
                    x[None])[..., 0].T
        for x, i in zip(grid, inner)]).reshape(-1, 3)
    assert np.allclose(rows[:, 5:], want, rtol=1e-11, atol=1e-13)


def _dumped_values(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    return rows[:, :4].reshape(-1, 4, 4)[:, 0], rows[:, 5:].reshape(-1, 4, 3)


def test_dump_field_and_build_basis_follow_pi2(tmp_path, capsys):
    q = ParamQ.default(2.0 ** -4)
    got = {}
    for pi2 in ("model", "full"):
        assert run_command(["dump-field", "--field", "b", "--eps", "0.0625",
                            "--pi2", pi2, "--out", str(tmp_path / pi2)]) == 0
        X, got[pi2] = _dumped_values(tmp_path / pi2 / "field_b_eps_0.0625.csv")
    order, n_inner = inner_first(np.linalg.norm(X - q.p, axis=1) < q.lam / 4)
    want = difference_b(q, pi2="full").value_split(X[order], n_inner)
    want = want[..., np.argsort(order)].transpose(2, 1, 0)
    assert np.allclose(got["full"], want, rtol=1e-11, atol=1e-13)
    assert not np.allclose(got["full"], got["model"], rtol=1e-6, atol=1e-6)
    # the basis is built on the chosen strategy as well
    for pi2 in ("model", "zero"):
        assert run_command(["build-basis", "--eps", "0.0625", "--pi2", pi2,
                            "--out", str(tmp_path / pi2)]) == 0
    model, zero = ((tmp_path / d / "basis_eps_0.0625.csv").read_text()
                   for d in ("model", "zero"))
    assert model != zero


def test_verify_lemma_58_cli(tmp_path, capsys):
    rc = run_command(["verify-lemma", "5.8", "--eps-list",
                      "2^-4,2^-5,2^-6,2^-7", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "check 5.8: pass" in out
    csv_file = tmp_path / "lemma_5_8.csv"
    svg_file = tmp_path / "lemma_5_8.svg"
    assert csv_file.exists() and svg_file.exists()
    body = csv_file.read_text().splitlines()
    assert body[0] == CSV_HEADER
    data = np.array([ln.split(",")[2] for ln in body[1:]], dtype=float)
    assert data.max() == 0.0625


def test_layer_tracer_runs_charge(tmp_path):
    # perfbench/tracer.py wraps entry points by the names other modules look
    # them up under; a rename that drops one makes it exit non-zero here
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), str(out),
         "--", "charge", "--eps", "0.0625"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(out.read_text())
    assert trace["exit_code"] == 0 and trace["spans"]


def test_layer_tracer_runs_l37(tmp_path):
    # the traced suite-3.7 run must find every lookup the tracer expects
    # (bracket_wedge_coeffs and star_coeffs in functionals among them)
    root = Path(__file__).resolve().parent.parent
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), str(out),
         "--", "verify-lemma", "3.7", "--eps-list", "2^-4,2^-5,2^-6,2^-7",
         "--n-test", "2", "--out", str(tmp_path / "results")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(out.read_text())
    assert trace["exit_code"] == 0
    names = [span[0] for span in trace["spans"]]
    assert names.count("functionals.point") == 4
    # every bracket of the l37 representers goes through the wrapped name
    assert "forms.wedge_bracket" in names
