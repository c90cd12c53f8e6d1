"""Command-line driver: parameter sweeps, verdicts, and CSV/SVG reports.

Exit codes: 0 all checks passed; 1 a verdict failed; 2 configuration error
(bad flag, bad config file, inadmissible parameters); 3 numerical failure
(quadrature refusing to converge, singular Gram matrix).

The sweep runs strictly sequentially so repeated invocations are
byte-reproducible, including the emitted CSV and SVG files.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .forms import DEFAULT_TOL, NumericalError, QuadratureError
from .functionals import (
    DEFAULT_N_TEST,
    DEFAULT_SEED,
    EstimateReport,
    SlopeFit,
    charge,
    compute_point_metrics,
    fit_slope,
    lemma36_report,
    lemma37_report,
    lemma57_report,
    lemma58_report,
    lemma59_report,
    lemma310_report,
    sweep_points,
    ym_eps,
)
from .instanton import (
    DEFAULT_D,
    DEFAULT_PI2,
    PI2_STRATEGIES,
    ParamError,
    ParamQ,
    difference_b,
    extended_connection,
    glued_connection,
    inner_first,
)
from .basis import gram_schmidt_ball, gram_schmidt_weighted

__all__ = ["SweepConfig", "ConfigError", "SlopeFit", "fit_slope",
           "run_command", "emit_outputs", "main"]


class ConfigError(ValueError):
    """Invalid command-line or config-file input."""


DEFAULT_EPS_SWEEP = tuple(2.0 ** -k for k in range(4, 10))
DEFAULT_EPS_SINGLE = 2.0 ** -6

LEMMA_TAGS = ("5.7", "5.8", "5.9", "3.6", "3.7", "3.10")

# the metric block a suite reads beyond the ball basis, if any
_LEMMA_BLOCKS = {"5.9": "weighted", "3.6": "l36", "3.7": "l37", "3.10": "l310"}

_LEMMA_BUILDERS = {
    "5.7": lemma57_report,
    "5.8": lemma58_report,
    "5.9": lemma59_report,
    "3.6": lemma36_report,
    "3.7": lemma37_report,
    "3.10": lemma310_report,
}


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep parameters shared by the verification commands."""

    eps_list: tuple = DEFAULT_EPS_SWEEP
    D: float = DEFAULT_D
    tol: float = DEFAULT_TOL
    seed: int = DEFAULT_SEED
    n_test: int = DEFAULT_N_TEST
    pi2: str = DEFAULT_PI2
    out_dir: str = "."

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_list)
        object.__setattr__(self, "eps_list", eps)
        if len(eps) < 4:
            raise ConfigError(f"sweep needs at least 4 eps values, got {len(eps)}")
        if not all(0 < e < np.inf for e in eps):
            raise ConfigError(f"eps values must be positive and finite: {eps}")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("eps values must be strictly decreasing")
        # D's bounds are read off the class: building a point here would
        # raise ParamError on an inadmissible eps, which points() reports
        if not (ParamQ.D1 < self.D < ParamQ.D2):
            raise ConfigError(
                f"ratio D = {self.D} outside ({ParamQ.D1}, {ParamQ.D2})")
        _check_tol(self.tol)
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.n_test < 1:
            raise ConfigError("n_test must be at least 1")
        if self.pi2 not in PI2_STRATEGIES:
            raise ConfigError(f"unknown strategy {self.pi2!r}; "
                              f"choose from {PI2_STRATEGIES}")

    def points(self):
        try:
            return sweep_points(self.eps_list, D=self.D)
        except ParamError as exc:
            raise ConfigError(str(exc)) from exc


def _check_tol(tol: float) -> float:
    """The self-check tolerance, rejected unless positive and finite (so
    neither NaN nor inf can switch the self-check off)."""
    if not (0 < tol < np.inf):
        raise ConfigError(f"tol must be positive and finite, got {tol}")
    return tol


# ---------------------------------------------------------------------------
# config file


def parse_eps_list(text: str):
    """Comma/whitespace separated eps values; 2^-k shorthand is accepted."""
    toks = [t for t in text.replace(",", " ").split() if t]
    if not toks:
        raise ConfigError("empty eps list")
    out = []
    for t in toks:
        try:
            if t.startswith("2^"):
                out.append(2.0 ** float(t[2:]))
            else:
                out.append(float(t))
        except ValueError:
            raise ConfigError(f"cannot parse eps value {t!r}") from None
        except OverflowError:
            raise ConfigError(f"eps value {t!r} overflows a float") from None
    return out


class _Option(NamedTuple):
    """A SweepConfig field as a flag and a config key: parse reads the key's
    text, and the flag's too unless argparse types it (flag_kw's "type")."""

    field: str
    flag: str
    section: str
    key: str
    parse: Callable
    flag_kw: dict


_OPTIONS = (
    _Option("eps_list", "--eps-list", "sweep", "eps_list", parse_eps_list, dict(
        metavar="LIST", help="comma-separated eps sweep (2^-k shorthand allowed)")),
    _Option("D", "--ratio-D", "sweep", "ratio_d", float, dict(
        type=float, metavar="D", help=f"lam^2 / eps ratio (default {DEFAULT_D})")),
    _Option("tol", "--tol", "sweep", "tol", float, dict(
        type=float, help=f"quadrature self-check tolerance (default {DEFAULT_TOL})")),
    _Option("seed", "--seed", "sweep", "seed", int, dict(
        type=int, help=f"seed for the sampled test fields (default {DEFAULT_SEED})")),
    _Option("n_test", "--n-test", "sweep", "n_test", int, dict(
        type=int,
        help=f"number of sampled test fields (default {SweepConfig.n_test})")),
    _Option("pi2", "--pi2", "sweep", "pi2", str, dict(
        choices=PI2_STRATEGIES,
        help=f"outer-extension strategy (default {DEFAULT_PI2})")),
    _Option("out_dir", "--out", "output", "dir", str, dict(
        metavar="DIR", help=f"output directory (default {SweepConfig.out_dir})")),
)


def load_config(path: str) -> dict:
    """Read an INI-style config: [sweep] and [output] sections, key = value."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if cp.defaults():
        raise ConfigError(f"unknown config section [{cp.default_section}]")
    options = {(o.section, o.key): o for o in _OPTIONS}
    text = {}
    for section in cp.sections():
        if section not in {o.section for o in _OPTIONS}:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in cp.items(section):
            if (section, key) not in options:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            text[options[section, key].field] = raw
    # every key is checked before any value is parsed, in _OPTIONS' order
    try:
        return {o.field: o.parse(text[o.field])
                for o in _OPTIONS if o.field in text}
    except ValueError as exc:
        raise ConfigError(f"bad value in config file: {exc}") from exc


def _merge_config(args) -> SweepConfig:
    """The config file's values, each overridden by its flag if offered and given."""
    kw = load_config(args.config) if args.config else {}
    for o in _OPTIONS:
        value = getattr(args, o.field, None)
        if value is not None:
            kw[o.field] = value if "type" in o.flag_kw else o.parse(value)
    return SweepConfig(**kw)


# ---------------------------------------------------------------------------
# output emission


CSV_HEADER = "lemma,quantity,eps,value,predicted_exponent,slope,residual,verdict"

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
            "#aec7e8", "#ffbb78", "#98df8a")


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".12g")


def report_csv(reports) -> str:
    lines = [CSV_HEADER]
    for rep in reports:
        for row in rep.rows:
            for e, v in zip(row.eps, row.values):
                lines.append(",".join([
                    rep.lemma, row.quantity, _fmt(e), _fmt(v),
                    _fmt(row.predicted_exponent), _fmt(row.slope),
                    _fmt(row.residual), row.verdict,
                ]))
    return "\n".join(lines) + "\n"


def _svg_text(x, y, s, size=12, anchor="start"):
    return (f'<text x="{x:.1f}" y="{y:.1f}" font-family="monospace" '
            f'font-size="{size}" text-anchor="{anchor}" fill="#222222">{s}</text>')


def report_svg(reports, title: str) -> str:
    """Static 1000x700 log-log chart of every positive-valued quantity."""
    W, H = 1000, 700
    x0, x1, y0, y1 = 80.0, 700.0, 60.0, 620.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
             f'viewBox="0 0 {W} {H}">',
             f'<rect x="0" y="0" width="{W}" height="{H}" fill="#ffffff"/>',
             _svg_text(x0, 30, title, size=16)]
    series = []
    for rep in reports:
        for row in rep.rows:
            pts = [(e, v) for e, v in zip(row.eps, row.values) if v > 0 and e > 0]
            if len(pts) >= 2:
                label = f"{rep.lemma} {row.quantity}"
                if row.slope is not None:
                    label += f" (slope {row.slope:+.2f})"
                series.append((label, pts, row.slope))
    if not series:
        parts.append(_svg_text((x0 + x1) / 2, (y0 + y1) / 2, "no data",
                               size=20, anchor="middle"))
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    lx = [np.log10(e) for _, pts, _ in series for e, _ in pts]
    ly = [np.log10(v) for _, pts, _ in series for _, v in pts]
    xmin, xmax = min(lx), max(lx)
    ymin, ymax = min(ly), max(ly)
    if xmax - xmin < 1e-12:
        xmin, xmax = xmin - 0.5, xmax + 0.5
    if ymax - ymin < 1e-12:
        ymin, ymax = ymin - 0.5, ymax + 0.5
    padx, pady = 0.04 * (xmax - xmin), 0.06 * (ymax - ymin)
    xmin, xmax = xmin - padx, xmax + padx
    ymin, ymax = ymin - pady, ymax + pady

    def X(le):
        return x0 + (le - xmin) / (xmax - xmin) * (x1 - x0)

    def Y(lv):
        return y1 - (lv - ymin) / (ymax - ymin) * (y1 - y0)

    # frame and ticks
    parts.append(f'<rect x="{x0}" y="{y0}" width="{x1-x0}" height="{y1-y0}" '
                 f'fill="none" stroke="#444444"/>')
    for k in range(6):
        le = xmin + k * (xmax - xmin) / 5
        parts.append(f'<line x1="{X(le):.1f}" y1="{y1}" x2="{X(le):.1f}" '
                     f'y2="{y1+5}" stroke="#444444"/>')
        parts.append(_svg_text(X(le), y1 + 20, f"{10**le:.3g}", anchor="middle"))
        lv = ymin + k * (ymax - ymin) / 5
        parts.append(f'<line x1="{x0-5}" y1="{Y(lv):.1f}" x2="{x0}" '
                     f'y2="{Y(lv):.1f}" stroke="#444444"/>')
        parts.append(_svg_text(x0 - 8, Y(lv) + 4, f"{10**lv:.3g}", anchor="end"))
    parts.append(_svg_text((x0 + x1) / 2, y1 + 40, "eps (log scale)",
                           anchor="middle"))

    for i, (label, pts, slope) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{X(np.log10(e)):.1f},{Y(np.log10(v)):.1f}"
                          for e, v in pts)
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        for e, v in pts:
            parts.append(f'<circle cx="{X(np.log10(e)):.1f}" '
                         f'cy="{Y(np.log10(v)):.1f}" r="3" fill="{color}"/>')
        if slope is not None:
            # fitted power law through the series in log10 coordinates
            fit = fit_slope(pts)
            b10 = fit.intercept / np.log(10.0)
            lxs = [np.log10(pts[0][0]), np.log10(pts[-1][0])]
            lys = [fit.slope * u + b10 for u in lxs]
            parts.append(f'<line x1="{X(lxs[0]):.1f}" y1="{Y(lys[0]):.1f}" '
                         f'x2="{X(lxs[1]):.1f}" y2="{Y(lys[1]):.1f}" '
                         f'stroke="{color}" stroke-dasharray="6,4" '
                         f'stroke-width="1"/>')
        ytxt = y0 + 16 + 16 * i
        parts.append(f'<line x1="{x1+12}" y1="{ytxt-4:.1f}" x2="{x1+40}" '
                     f'y2="{ytxt-4:.1f}" stroke="{color}" stroke-width="2"/>')
        parts.append(_svg_text(x1 + 46, ytxt, label, size=11))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_text(path: str, text: str) -> None:
    """Write an output file, or raise ConfigError naming it."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def emit_outputs(reports, out_dir: str, stem: str):
    """Write the CSV table and the SVG chart; returns (csv_path, svg_path)."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    svg_path = os.path.join(out_dir, f"{stem}.svg")
    _write_text(csv_path, report_csv(reports))
    _write_text(svg_path, report_svg(reports, stem))
    return csv_path, svg_path


def _print_report(rep: EstimateReport):
    for row in rep.rows:
        bits = [f"[{rep.lemma}] {row.quantity}: {row.verdict}"]
        if row.slope is not None:
            bits.append(f"slope={row.slope:+.3f}")
        if row.residual is not None:
            bits.append(f"residual={row.residual:.3f}")
        if row.note:
            bits.append(row.note)
        print("  " + "  ".join(bits))


# ---------------------------------------------------------------------------
# commands


def _single_point(args, cfg: SweepConfig) -> ParamQ:
    """The point of a single-eps command: --eps at the config's D."""
    eps = DEFAULT_EPS_SINGLE if args.eps is None else args.eps
    try:
        return ParamQ.default(eps, D=cfg.D)
    except ParamError as exc:
        raise ConfigError(str(exc)) from exc


def _make_out_dir(path: str) -> None:
    """Create the output directory, or raise ConfigError naming it, before
    a writing command computes anything."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {path}: {exc}") from exc


def _cmd_charge(args, cfg: SweepConfig) -> int:
    q = _single_point(args, cfg)
    c = charge(extended_connection(q), q.eps, tol=cfg.tol)
    ok = abs(c - 1.0) <= 1e-2
    print(f"charge(eps={q.eps:g}) = {c:.6f}  target 1.0 +/- 0.01  "
          f"-> {'pass' if ok else 'fail'}")
    return 0 if ok else 1


def _cmd_energy(args, cfg: SweepConfig) -> int:
    q = _single_point(args, cfg)
    e = q.eps ** 2 * ym_eps(extended_connection(q), q.eps, tol=cfg.tol)
    target = 8.0 * np.pi ** 2
    ok = abs(e - target) <= 0.01 * target
    print(f"eps^2 * energy(eps={q.eps:g}) = {e:.6f}  target 8*pi^2 = "
          f"{target:.6f} +/- 1%  -> {'pass' if ok else 'fail'}")
    return 0 if ok else 1


def _cmd_build_basis(args, cfg: SweepConfig) -> int:
    q = _single_point(args, cfg)
    _make_out_dir(cfg.out_dir)
    ball = gram_schmidt_ball(q, pi2=cfg.pi2, tol=cfg.tol)
    weighted = gram_schmidt_weighted(q, ball, tol=cfg.tol)
    rb, rw = ball.gram_residual(), weighted.gram_residual()
    path = os.path.join(cfg.out_dir, f"basis_eps_{q.eps:g}.csv")
    lines = ["record,i,j,value"]
    for i in range(8):
        lines.append(f"raw_norm,{i+1},{i+1},"
                     f"{_fmt(np.sqrt(ball.raw_gram[i, i]))}")
    for kind, C in (("ball_coeff", ball.coeff), ("weighted_coeff",
                                                 weighted.coeff)):
        for i in range(8):
            for j in range(i + 1):
                lines.append(f"{kind},{i+1},{j+1},{_fmt(C[i, j])}")
    lines.append(f"ball_gram_residual,0,0,{_fmt(rb)}")
    lines.append(f"weighted_gram_residual,0,0,{_fmt(rw)}")
    _write_text(path, "\n".join(lines) + "\n")
    ok = rb <= 1e-8 and rw <= 1e-8
    print(f"ball Gram residual {rb:.3e}, weighted Gram residual {rw:.3e}  "
          f"-> {'pass' if ok else 'fail'}")
    print(f"wrote {path}")
    return 0 if ok else 1


def _run_lemmas(tags, cfg: SweepConfig, stem: str) -> int:
    _make_out_dir(cfg.out_dir)
    blocks = frozenset(_LEMMA_BLOCKS[t] for t in tags if t in _LEMMA_BLOCKS)
    metrics = []
    for k, q in enumerate(cfg.points()):
        print(f"sweep point {k+1}/{len(cfg.eps_list)}: eps = {q.eps:g}, "
              f"lam = {q.lam:.6g}")
        metrics.append(compute_point_metrics(
            q, pi2=cfg.pi2, tol=cfg.tol, seed=cfg.seed,
            n_test=cfg.n_test, blocks=blocks))
    reports = []
    for t in tags:
        rep = _LEMMA_BUILDERS[t](metrics)
        reports.append(rep)
        print(f"check {t}: {'pass' if rep.passed() else 'FAIL'}")
        _print_report(rep)
    csv_path, svg_path = emit_outputs(reports, cfg.out_dir, stem)
    print(f"wrote {csv_path}")
    print(f"wrote {svg_path}")
    return 0 if all(r.passed() for r in reports) else 1


def _cmd_verify_lemma(args, cfg: SweepConfig) -> int:
    return _run_lemmas([args.tag], cfg, f"lemma_{args.tag.replace('.', '_')}")


def _cmd_verify_scaling(args, cfg: SweepConfig) -> int:
    return _run_lemmas(["5.7", "5.8"], cfg, "scaling")


def _cmd_all(args, cfg: SweepConfig) -> int:
    _make_out_dir(cfg.out_dir)
    status = max(_cmd_charge(args, cfg), _cmd_energy(args, cfg))
    rc = _run_lemmas(list(LEMMA_TAGS), cfg, "report_all")
    return max(status, rc)


def _cmd_dump_field(args, cfg: SweepConfig) -> int:
    q = _single_point(args, cfg)
    _make_out_dir(cfg.out_dir)
    field = {"A": lambda: glued_connection(q, pi2=cfg.pi2),
             "Atilde": lambda: extended_connection(q),
             "b": lambda: difference_b(q, pi2=cfg.pi2)}[args.field]()
    n = 41
    span = np.linspace(-0.5, 0.5, n)
    G0, G1 = np.meshgrid(span, span, indexing="ij")
    X = np.zeros((n * n, 4))
    X[:, 0] = q.p[0] + G0.ravel()
    X[:, 1] = q.p[1] + G1.ravel()
    X[:, 2], X[:, 3] = q.p[2], q.p[3]
    order, n_inner = inner_first(np.linalg.norm(X - q.p, axis=1)
                                 < field.chart_radius())
    vals = field.value_split(X[order], n_inner)
    col = np.argsort(order)           # grid point r sits in column col[r]
    path = os.path.join(cfg.out_dir, f"field_{args.field}_eps_{q.eps:g}.csv")
    lines = ["x0,x1,x2,x3,component-index,e1,e2,e3"]
    for r in range(n * n):
        coords = [_fmt(X[r, k]) for k in range(4)]
        for mu in range(4):
            row = coords + [str(mu)] + [_fmt(vals[a, mu, col[r]])
                                        for a in range(3)]
            lines.append(",".join(row))
    _write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Command(NamedTuple):
    """A subcommand: the function that runs it, its help, and the flags it
    reads besides --config, which every command takes."""

    run: Callable
    help: str
    flags: tuple


_SWEEP = tuple(o.flag for o in _OPTIONS)
_POINT = ("--eps", "--ratio-D", "--tol")

_COMMANDS = {
    "charge": _Command(_cmd_charge, "topological charge of the extension", _POINT),
    "energy": _Command(_cmd_energy, "eps^2-normalized energy of the extension",
                       _POINT),
    "build-basis": _Command(_cmd_build_basis, "orthonormal bases at one eps, "
                            "written as CSV", _POINT + ("--pi2", "--out")),
    "verify-scaling": _Command(_cmd_verify_scaling, "norm/coefficient scaling "
                               "checks over a sweep", _SWEEP),
    "verify-lemma": _Command(_cmd_verify_lemma, "one named scaling check suite",
                             _SWEEP),
    "dump-field": _Command(_cmd_dump_field, "sample a field on a plane grid",
                           ("--eps", "--ratio-D", "--pi2", "--out")),
    "all": _Command(_cmd_all, "every check; exit 0 only if all pass",
                    _SWEEP + ("--eps",)),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per _COMMANDS entry, offering exactly its flags; no
    flag may be abbreviated, so a refused flag is never read as another."""
    ap = argparse.ArgumentParser(
        prog="ymeps", allow_abbrev=False,
        description="Glued-connection laboratory: energies, bases, and "
                    "eps-scaling verdicts.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help, allow_abbrev=False)
        if name == "verify-lemma":
            p.add_argument("tag", choices=LEMMA_TAGS, help="check suite tag")
        p.add_argument("--config", metavar="PATH", help="INI config file")
        for o in _OPTIONS:
            if o.flag in cmd.flags:
                p.add_argument(o.flag, dest=o.field, **o.flag_kw)
        if "--eps" in cmd.flags:
            p.add_argument("--eps", type=float, help=(
                f"single eps (default {DEFAULT_EPS_SINGLE:g}; in all, of "
                "its charge and energy checks)"))
        if name == "dump-field":
            p.add_argument("--field", choices=("A", "Atilde", "b"),
                           default="A", help="which field to sample")
    return ap


def run_command(argv) -> int:
    """Parse argv (no program name) and run; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command].run(args, _merge_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2
    except (QuadratureError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
