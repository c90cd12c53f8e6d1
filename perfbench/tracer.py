"""Run one ymeps CLI command with spans recorded around each layer's entry points.

    python -u perfbench/tracer.py OUT.json -- <ymeps arguments>

The layers' public entry points are wrapped from outside: every module
attribute (and the harness' report-builder table) that holds a wrapped
function is replaced by the wrapper, so a name imported by another module is
traced as well.  Spans (name, start, end, parent) stay in memory and are
written to OUT.json after the command returns, together with exact work
counts and numerics readouts taken from the wrapped calls' return values.
The command's exit code is passed through.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
import sys
import time
import weakref
from collections import OrderedDict

import numpy as np

from ymeps import basis, forms, functionals, harness, instanton

MODULES = (forms, instanton, basis, functionals, harness)

_CENSORED = re.compile(r"(\d+) points below the .* noise floor")


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {
            "rule_builds": 0, "rule_nodes": 0,
            "atom_evals": 0, "atom_out_bytes": 0,
            "grad_of_hits": 0,
        }
        self.numerics = {
            "rule_self_check_max": 0.0, "gram_cond_max": 0.0,
            "l310_halving_max": 0.0, "censored_points": 0,
        }
        self.atom_keys = set()
        self._node_digests = OrderedDict()   # id(X) -> (X, digest), recent X only
        self._grads_seen = {}                # id(array) -> weakref to it

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    # -- hooks reading returned values ---------------------------------
    def rule_built(self, rule, args, kwargs):
        if self.inside("forms.rule_build"):
            return   # refinement rule of an enclosing build's self-check
        self.counts["rule_builds"] += 1
        self.counts["rule_nodes"] += len(rule)
        self.numerics["rule_self_check_max"] = max(
            self.numerics["rule_self_check_max"], float(rule.self_check_error))

    def _nodes_digest(self, X):
        hit = self._node_digests.get(id(X))
        if hit is not None and hit[0] is X:
            return hit[1]
        digest = hashlib.blake2b(np.ascontiguousarray(X).data,
                                 digest_size=16).digest()
        self._node_digests[id(X)] = (X, digest)
        while len(self._node_digests) > 8:
            self._node_digests.popitem(last=False)
        return digest

    def atom_evaluated(self, out, args, kwargs):
        atom, X = args[0], args[1]
        ydirs = args[2] if len(args) > 2 else kwargs.get("ydirs", ())
        dlam = args[3] if len(args) > 3 else kwargs.get("dlam", 0)
        h = hashlib.blake2b(type(atom).__name__.encode(), digest_size=16)
        for key, val in sorted(vars(atom).items()):
            h.update(key.encode())
            if isinstance(val, np.ndarray):
                h.update(val.tobytes())
            elif callable(val):
                h.update(val.__qualname__.encode())
            else:
                h.update(repr(val).encode())
        self.atom_keys.add((h.digest(), tuple(ydirs), int(dlam),
                            self._nodes_digest(X)))
        self.counts["atom_evals"] += 1
        self.counts["atom_out_bytes"] += out.nbytes

    def grad_returned(self, out, args, kwargs):
        ref = self._grads_seen.get(id(out))
        if ref is not None and ref() is out:
            self.counts["grad_of_hits"] += 1
        else:
            self._grads_seen[id(out)] = weakref.ref(out)

    def basis_built(self, gb, args, kwargs):
        self.numerics["gram_cond_max"] = max(
            self.numerics["gram_cond_max"], float(np.linalg.cond(gb.raw_gram)))

    def point_computed(self, metrics, args, kwargs):
        if "l310_halving" in metrics:
            self.numerics["l310_halving_max"] = max(
                self.numerics["l310_halving_max"], float(metrics["l310_halving"]))

    def report_built(self, rep, args, kwargs):
        for row in rep.rows:
            m = _CENSORED.search(row.note)
            if m:
                self.numerics["censored_points"] += int(m.group(1))


def _wrapper(rec, span, fn, after):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        idx = rec.open(span) if span else None
        try:
            out = fn(*args, **kwargs)
        finally:
            if idx is not None:
                rec.close(idx)
        if after is not None:
            after(out, args, kwargs)
        return out
    return wrapped


def _patch_function(rec, span, owner, attr, after=None, expect=()):
    """Replace owner.attr in every module that holds it; returns the modules."""
    original = getattr(owner, attr)
    wrapped = _wrapper(rec, span, original, after)
    patched = []
    for mod in MODULES:
        for name, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, name, wrapped)
                patched.append(mod.__name__)
    table = harness._LEMMA_BUILDERS
    for key, val in list(table.items()):
        if val is original:
            table[key] = wrapped
            patched.append("ymeps.harness._LEMMA_BUILDERS")
    missing = set(expect) - set(patched)
    if missing:
        raise RuntimeError(f"{attr} is no longer looked up in {sorted(missing)}")
    return patched


def _patch_method(rec, span, cls, attr, after=None):
    setattr(cls, attr, _wrapper(rec, span, vars(cls)[attr], after))


def install(rec: Recorder):
    """Wrap each layer's entry points; the lookups named in `expect` must exist."""
    F, B, H = "ymeps.functionals", "ymeps.basis", "ymeps.harness"
    for attr in ("ball_rule", "domain_ball_rule", "weighted_r4_rule"):
        _patch_function(rec, "forms.rule_build", forms, attr, rec.rule_built,
                        expect=(B,) if attr != "ball_rule" else (B, F))
    _patch_function(rec, "forms.wedge_bracket", forms, "bracket_wedge_coeffs",
                    expect=(F,))
    _patch_function(rec, "forms.star", forms, "star_coeffs", expect=(F,))
    _patch_function(rec, "instanton.terms_value", instanton, "terms_value")
    _patch_function(rec, "instanton.terms_jac", instanton, "terms_jac")
    for cls in (instanton.LinRadAtom, instanton.BetaAtom, instanton.BgAtom):
        _patch_method(rec, "instanton.atom_eval", cls, "eval",
                      rec.atom_evaluated)
    _patch_method(rec, "basis.arrays", basis.InnerContext, "arrays")
    _patch_method(rec, "basis.grad_of", basis.InnerContext, "grad_of",
                  rec.grad_returned)
    _patch_method(rec, "basis.inner_nf", basis.InnerContext, "inner_nf")
    _patch_function(rec, "basis.gram", basis, "_raw_gram")
    _patch_function(rec, "basis.mgs", basis, "mgs_coefficients")
    _patch_function(rec, None, basis, "_basis_from_fields", rec.basis_built)
    _patch_function(rec, "basis.fd_rebuild", basis, "_basis_field_at")
    _patch_function(rec, "basis.project_perp", basis, "project_perp",
                    expect=(F,))
    _patch_function(rec, "functionals.point", functionals,
                    "compute_point_metrics", rec.point_computed, expect=(H,))
    _patch_function(rec, "functionals.test_fields", functionals,
                    "test_field_family")
    for tag in harness.LEMMA_TAGS:
        attr = f"lemma{tag.replace('.', '')}_report"
        _patch_function(rec, "functionals.report", functionals, attr,
                        rec.report_built, expect=(H,))
    _patch_function(rec, "harness.emit", harness, "emit_outputs")


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py OUT.json -- <ymeps arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    rec = Recorder()
    install(rec)
    root = rec.open("harness.command")
    try:
        code = harness.run_command(cli_args)
    finally:
        rec.close(root)
    counts = dict(rec.counts, atom_evals_unique=len(rec.atom_keys))
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"argv": cli_args, "exit_code": code, "counts": counts,
                   "numerics": rec.numerics, "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
