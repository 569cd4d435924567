"""Span tracing of the viscowave layers from outside the package.

`Tracer.install()` replaces every public callable of the package's modules
with a wrapper that records one span per call (name, start, end, parent
span, op id) and, for a few callables, a work count at the same boundary.
Module functions are patched in every module namespace that binds them,
so `core.sinhc` is counted wherever it is called from; public methods are
patched on their class.  `uninstall()` puts the originals back.

Spans live in flat arrays in memory and are written out once, by `save`,
when the run ends.  Untraced runs never call `install`, so they execute the
package unmodified.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("core", "spectrum", "weierstrass", "multiplier", "biorthogonal",
           "moment", "pde", "cli")
# pipeline layers; `core` holds shared numerics, whose time is charged to
# the layer that called it when layers are compared
LAYERS = ("spectrum", "weierstrass", "multiplier", "biorthogonal", "moment",
          "pde", "cli")
ROOT = "cli.command"  # the span around one whole CLI op


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        self.sums: dict[str, float] = defaultdict(float)
        self.maxes: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.paused = False

    # -- recording ---------------------------------------------------------

    def intern(self, key: str) -> int:
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
        return self._ids[key]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.start.append(time.perf_counter())
        self.end.append(math.nan)
        self._stack.append(idx)
        return idx

    def open_op(self) -> int:
        """Start a new op with its root span, the ancestor of every span
        the op records."""
        self.op_id += 1
        return self.open(self.intern(ROOT))

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float) -> None:
        self.sums[key] += value

    def count_max(self, key: str, value: float) -> None:
        self.maxes[key] = max(self.maxes.get(key, -math.inf), value)

    def parent_name(self, idx: int) -> str | None:
        p = self.parent[idx]
        return self.names[self.name[p]] if p >= 0 else None

    def wrap(self, key: str, fn, counter=None):
        nid = self.intern(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = self.open(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                # counters may call package code; that work is not traced
                self.paused = True
                try:
                    counter(self, idx, args, res)
                finally:
                    self.paused = False
            return res
        return traced

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions and methods of every package module."""
        mods = {m: getattr(package, m) for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                key = f"{short}.{attr}"
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self.wrap(key, obj, COUNTERS.get(key))
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        targets = [package, *mods.values()]
        for target in targets:
            for attr, obj in list(vars(target).items()):
                w = wrappers.get(id(obj))
                if w is not None and inspect.isfunction(obj):
                    self._patched.append((target, attr, obj))
                    setattr(target, attr, w)

    def _wrap_class(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            key = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                new = self.wrap(key, obj, COUNTERS.get(key))
            elif isinstance(obj, (classmethod, staticmethod)):
                new = type(obj)(self.wrap(key, obj.__func__, COUNTERS.get(key)))
            else:
                continue
            self._patched.append((cls, attr, obj))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for target, attr, obj in reversed(self._patched):
            setattr(target, attr, obj)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.op, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path: str) -> None:
        name, parent, op, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, op=op, start=start, end=end)


# ---------------------------------------------------------------------------
# work counts, recorded at the span boundary by the wrappers above
# ---------------------------------------------------------------------------

def _pair_terms(tr: Tracer, idx: int, args, res) -> None:
    # ProductEvaluator.log_eval(m, z): the direct paired sum runs over
    # cutoff(m, max|z|) indices for every z
    ev, m, z = args[0], args[1], np.atleast_1d(args[2])
    cut = ev.cutoff(m, float(np.max(np.abs(z), initial=0.0)))
    terms = float(z.size * cut)
    tr.count("weierstrass.pair_terms", terms)
    if tr.parent_name(idx) == "biorthogonal.build_theta_family":
        tr.count("weierstrass.pair_terms.family_grid", terms)


def _log1p_elements(tr: Tracer, idx: int, args, res) -> None:
    tr.count("core.log1p_c.elements", float(np.size(args[0])))


def _factor_terms(tr: Tracer, idx: int, args, res) -> None:
    ev, lo, hi, z = args
    tr.count("multiplier.factor_terms", float(np.size(z) * max(0, hi - lo + 1)))


def _k_cut(tr: Tracer, idx: int, args, res) -> None:
    tr.count_max("multiplier.k_cut.max", float(args[0].k_cut))


def _family(tr: Tracer, idx: int, args, res) -> None:
    n_fft = int(res.meta["n_fft"])
    tr.count_max("biorthogonal.n_fft", float(n_fft))
    # complex128 frequency-side samples, one array per family member
    tr.count("biorthogonal.grid_bytes", float(16 * n_fft * len(res.indices)))


def _gram_cond(tr: Tracer, idx: int, args, res) -> None:
    tr.count_max("moment.gram_cond.max_log10", math.log10(res.cond))


COUNTERS = {
    "core.log1p_c": _log1p_elements,
    "weierstrass.ProductEvaluator.log_eval": _pair_terms,
    "multiplier.MultiplierEvaluator.log_factor_range": _factor_terms,
    "multiplier.MultiplierEvaluator.log_eval_start": _k_cut,
    "biorthogonal.build_theta_family": _family,
    "moment.minnorm_control": _gram_cond,
}


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def analyse(tr: Tracer) -> dict:
    """Self times, per-layer charges and structural checks of all spans.

    Returns totals over every recorded op plus per-op figures:
      by_name[key] = (calls, inclusive_s, self_s)
      layer_s[layer] = self time of the layer plus core time it called
      ops[op] = {"wall": root span duration, "attributed": share of wall
                 inside library spans, "layer_s": per-layer charge}
      nest_errors: spans left open, or that end outside their parent or
                   change op.  With none, an op's span self times add up
                   to its wall time exactly.
    """
    name, parent, op, start, end = tr.arrays()
    n = len(start)
    dur = end - start
    child = np.zeros(n)
    has_p = parent >= 0
    np.add.at(child, parent[has_p], dur[has_p])
    self_t = dur - child

    nest_errors = int(np.sum(~np.isfinite(end)))
    if np.any(has_p):
        p = parent[has_p]
        bad = (start[has_p] < start[p]) | (end[has_p] > end[p]) | (op[has_p] != op[p])
        nest_errors += int(np.sum(bad))

    mod_of = [k.split(".", 1)[0] for k in tr.names]
    # charge core spans to the nearest non-core ancestor (parents precede
    # children in the arrays, so one forward pass suffices)
    charge = [""] * n
    for i in range(n):
        mod = mod_of[name[i]]
        charge[i] = charge[parent[i]] if mod == "core" and parent[i] >= 0 else mod

    by_name: dict[str, list[float]] = {}
    for k, key in enumerate(tr.names):
        sel = name == k
        by_name[key] = [int(np.sum(sel)), float(np.sum(dur[sel])),
                        float(np.sum(self_t[sel]))]

    root_id = tr._ids.get(ROOT, -1)
    ops: dict[int, dict] = {}
    for i in np.flatnonzero(name == root_id):
        ops[int(op[i])] = {"wall": float(dur[i]), "root_self": float(self_t[i]),
                           "layer_s": defaultdict(float)}
    for i in range(n):
        rec = ops.get(int(op[i]))
        if rec is not None:
            rec["layer_s"][charge[i]] += self_t[i]
    for rec in ops.values():
        rec["attributed"] = 1.0 - rec["root_self"] / rec["wall"] if rec["wall"] > 0 else 0.0

    layer_s: dict[str, float] = defaultdict(float)
    for rec in ops.values():
        for layer, s in rec["layer_s"].items():
            layer_s[layer] += s
    return {"by_name": by_name, "layer_s": dict(layer_s), "ops": ops,
            "nest_errors": nest_errors, "spans": n}


# metric name -> (span key, statistics reported): calls per traced op, and
# the span time (inclusive, or self) as a share of traced op wall time
STATS = {
    "core.log1p_c": ("core.log1p_c", ("share",)),
    "core.sinhc": ("core.sinhc", ("calls", "share")),
    "weierstrass.log_eval": ("weierstrass.ProductEvaluator.log_eval",
                             ("calls", "share", "self_share")),
    "weierstrass.envelope_fit": ("weierstrass.envelope_fit", ("calls", "share")),
    "multiplier.log_eval_start": ("multiplier.MultiplierEvaluator.log_eval_start",
                                  ("calls", "share")),
    "multiplier.log_factor_range": ("multiplier.MultiplierEvaluator.log_factor_range",
                                    ("calls", "share")),
    "biorthogonal.build_theta_family": ("biorthogonal.build_theta_family",
                                        ("share", "self_share")),
    "biorthogonal.resolve_omega": ("biorthogonal.resolve_omega", ("share",)),
    "biorthogonal.fourier_to_time": ("biorthogonal.fourier_to_time", ("share",)),
    "biorthogonal.zeta_eval": ("biorthogonal.zeta_eval", ("share",)),
    "moment.minnorm_control": ("moment.minnorm_control", ("share",)),
    "moment.synthesize_control_series": ("moment.synthesize_control_series", ("share",)),
    "moment.ingham_trials": ("moment.ingham_trials", ("share",)),
    "pde.simulate": ("pde.simulate", ("calls", "share")),
    "pde.mode_propagate": ("pde.mode_propagate", ("calls", "share")),
}
SUM_COUNTS = ("core.log1p_c.elements", "weierstrass.pair_terms", "multiplier.factor_terms",
              "biorthogonal.grid_bytes")
MAX_COUNTS = ("multiplier.k_cut.max", "biorthogonal.n_fft", "moment.gram_cond.max_log10")
UNITS = {"calls": "count", "share": "ratio", "self_share": "ratio"}


def per_layer(tr: Tracer, report: dict, n_ops: int, overhead_s: float,
              bytes_per_op: float) -> dict:
    """Per-layer metrics of the traced ops.

    Counts are per traced op.  Times are shares of the traced ops' wall
    time, which do not move with the machine's speed; a share times
    `op_s.p50` gives seconds.
    """
    out = {}
    by_name = report["by_name"]
    ops = report["ops"].values()
    wall = sum(o["wall"] for o in ops)
    for name, (key, stats) in STATS.items():
        calls, incl, self_s = by_name.get(key, (0, 0.0, 0.0))
        vals = {"calls": calls / n_ops, "share": incl / wall, "self_share": self_s / wall}
        for st in stats:
            out[f"{name}.{st}"] = {"value": vals[st], "unit": UNITS[st]}
    units = {"biorthogonal.grid_bytes": "B"}
    for key in SUM_COUNTS:
        out[key] = {"value": tr.sums.get(key, 0.0) / n_ops, "unit": units.get(key, "count")}
    for key in MAX_COUNTS:
        out[key] = {"value": tr.maxes.get(key, 0.0),
                    "unit": "log10" if key.endswith("log10") else "count"}
    pairs = tr.sums.get("weierstrass.pair_terms", 0.0)
    out["weierstrass.family_grid_ratio"] = {
        "value": tr.sums.get("weierstrass.pair_terms.family_grid", 0.0) / pairs
        if pairs else 0.0, "unit": "ratio"}
    out["cli.self_share"] = {"value": sum(o["root_self"] for o in ops) / wall,
                             "unit": "ratio"}
    out["cli.bytes_written"] = {"value": bytes_per_op, "unit": "B"}
    for layer in LAYERS:
        out[f"layer.{layer}.share"] = {"value": report["layer_s"].get(layer, 0.0) / wall,
                                       "unit": "ratio"}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    out["trace.attributed.min"] = {"value": min((o["attributed"] for o in ops), default=0.0),
                                   "unit": "ratio"}
    out["trace.spans"] = {"value": report["spans"] / n_ops, "unit": "count"}
    return out
