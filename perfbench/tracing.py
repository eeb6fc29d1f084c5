"""Span tracing of the weinstein layers from outside the package.

Every public function of a layer module is wrapped where it is bound: in
its own module and at every import site (``from .transform import forward``
copies the binding into ``verify``, ``wavelets``, ``localization``, ...).
A few methods that carry a layer's work are wrapped on their class.  Each
call records a span (name, label, start, end, parent, raised) in memory;
self time is a span's duration minus the durations of its direct children.
Counters (calls, exceptions, SVDs per distinct matrix) are taken at the
same boundaries.  ``install`` and ``uninstall`` patch and restore, so one
process can time the same work untraced and traced.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import weakref

import numpy as np

#: layer modules whose public functions are wrapped, in stack order
LAYERS = ("special", "grids", "probes", "transform", "translation", "wavelets",
          "localization", "verify", "report", "cli")

#: (layer, class, method, span name) for methods that carry a layer's work;
#: missing classes or methods are skipped so the table outlives refactors
METHODS = (
    ("grids", "BaseGrid", "nodes", "nodes"),
    ("grids", "BaseGrid", "cart_diff_index", "cart_diff_index"),
    ("translation", "TranslationKernel", "__post_init__", "kernel_build"),
    ("wavelets", "WaveletPair", "space_data", "space_data"),
)

#: relative size of an imaginary part below which an input counts as real
REAL_RTOL = 1e-12


def _is_real(a) -> bool:
    a = np.asarray(a)
    if not np.iscomplexobj(a):
        return True
    scale = max(float(np.max(np.abs(a.real))), 1e-300)
    return float(np.max(np.abs(a.imag))) <= REAL_RTOL * scale


def _pair_is_real(pair) -> bool:
    return _is_real(pair.phi.field.values) and _is_real(pair.psi.field.values)


def _label_dim(pair, *args, **kwargs):
    return f"d{pair.plan.grid.d}"


def _label_realness(pair, symbol, *args, **kwargs):
    return "real" if _is_real(symbol.values) and _pair_is_real(pair) else "complex"


def _label_p(L, p, *args, **kwargs):
    return "p2" if p == 2 else "other"


#: span labels computed from the call's arguments, before the span starts
LABELS = {
    "wavelets.cwt": _label_dim,
    "wavelets.invert_cwt": _label_dim,
    "localization.assemble": _label_realness,
    "localization.measured_norm": _label_p,
}


class Tracer:
    """In-memory span recorder with patch/unpatch of the layer functions."""

    def __init__(self):
        self.spans: list[list] = []   # [name, label, start, end, parent, raised]
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._svd_seen: dict[int, weakref.ref] = {}
        self.svd_calls = 0
        self.svd_distinct = 0

    # -- recording -----------------------------------------------------------
    def _wrap(self, name: str, fn):
        label_fn = LABELS.get(name)
        counts_svd = name in ("localization.measured_norm",
                              "localization.singular_value_profile")
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = label_fn(*args, **kwargs) if label_fn else None
            if counts_svd:
                self._count_svd(name, args, kwargs)
            idx = len(spans)
            span = [name, label, 0.0, 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    def _count_svd(self, name, args, kwargs):
        if name == "localization.measured_norm":
            p = args[1] if len(args) > 1 else kwargs.get("p")
            if p != 2:
                return
        L = args[0] if args else kwargs.get("L")
        M = L.matrix
        self.svd_calls += 1
        ref = self._svd_seen.get(id(M))
        if ref is None or ref() is not M:
            self._svd_seen[id(M)] = weakref.ref(M)
            self.svd_distinct += 1

    # -- patching ------------------------------------------------------------
    def install(self) -> None:
        """Wrap every public layer function at each site it is bound."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = {layer: importlib.import_module(f"weinstein.{layer}") for layer in LAYERS}
        targets = []  # (original, span name)
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets.append((obj, f"{layer}.{attr}"))
        wrappers = {id(orig): (orig, self._wrap(name, orig)) for orig, name in targets}
        # every module of the package may hold a copied binding
        sites = [m for n, m in list(sys.modules.items())
                 if m is not None and (n == "weinstein" or n.startswith("weinstein."))]
        for site in sites:
            for attr, obj in list(vars(site).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(site, attr, hit[1])
                    self._patched.append((site, attr, obj))
        for layer, cls_name, meth, span in METHODS:
            cls = getattr(mods[layer], cls_name, None)
            orig = None if cls is None else cls.__dict__.get(meth)
            if orig is None:
                continue
            setattr(cls, meth, self._wrap(f"{layer}.{span}", orig))
            self._patched.append((cls, meth, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- reduction -----------------------------------------------------------
    def summary(self) -> dict:
        """Aggregate spans into calls, self/inclusive seconds and exceptions."""
        n = len(self.spans)
        child = np.zeros(n)
        for s in self.spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        exceptions: dict[str, int] = {}
        for i, (name, label, t0, t1, _parent, raised) in enumerate(self.spans):
            dur = t1 - t0
            own = dur - child[i]
            layer = name.split(".", 1)[0]
            calls[name] = calls.get(name, 0) + 1
            total_s[name] = total_s.get(name, 0.0) + dur
            for key in (name, layer) + ((f"{name}.{label}",) if label else ()):
                self_s[key] = self_s.get(key, 0.0) + own
            exceptions[layer] = exceptions.get(layer, 0) + int(raised)
        return {"calls": calls, "self_s": self_s, "total_s": total_s,
                "exceptions": exceptions, "spans": n,
                "svd_calls": self.svd_calls, "svd_distinct": self.svd_distinct}

    def write(self, path) -> None:
        """Write every span as one JSON line: name, label, start, end, parent."""
        with open(path, "w") as fh:
            for name, label, t0, t1, parent, raised in self.spans:
                fh.write(json.dumps({"name": name, "label": label, "start": t0,
                                     "end": t1, "parent": parent,
                                     "raised": raised}) + "\n")


#: per-layer metrics as (metric name, summary table, span or layer key), by layer;
#: "self_s" is self time, "total_s" inclusive time (for set-up steps and
#: verify groups whose work sits in wrapped children)
LAYER_METRICS = (
    ("special.normalized_bessel.calls", "calls", "special.normalized_bessel"),
    ("special.normalized_bessel.self_s", "self_s", "special.normalized_bessel"),
    ("grids.self_s", "self_s", "grids"),
    ("grids.lp_norm.calls", "calls", "grids.lp_norm"),
    ("probes.self_s", "self_s", "probes"),
    ("transform.build_plan.self_s", "self_s", "transform.build_plan"),
    ("transform.forward.calls", "calls", "transform.forward"),
    ("transform.forward.self_s", "self_s", "transform.forward"),
    ("transform.inverse.self_s", "self_s", "transform.inverse"),
    ("translation.kernel_build.self_s", "self_s", "translation.kernel_build"),
    ("translation.translate.self_s", "self_s", "translation.translate"),
    ("translation.convolve.self_s", "self_s", "translation.convolve"),
    ("translation.convolve_spectral.self_s", "self_s", "translation.convolve_spectral"),
    ("wavelets.build_pair.s", "total_s", "wavelets.build_pair"),
    ("wavelets.space_data.s", "total_s", "wavelets.space_data"),
    ("wavelets.eval_freq_data.self_s", "self_s", "wavelets.eval_freq_data"),
    ("wavelets.cwt.calls", "calls", "wavelets.cwt"),
    ("wavelets.cwt.self_s.d1", "self_s", "wavelets.cwt.d1"),
    ("wavelets.cwt.self_s.d2", "self_s", "wavelets.cwt.d2"),
    ("wavelets.cwt_convolution_form.self_s", "self_s", "wavelets.cwt_convolution_form"),
    ("wavelets.invert_cwt.self_s.d1", "self_s", "wavelets.invert_cwt.d1"),
    ("wavelets.invert_cwt.self_s.d2", "self_s", "wavelets.invert_cwt.d2"),
    ("localization.assemble.calls", "calls", "localization.assemble"),
    ("localization.assemble.self_s.real", "self_s", "localization.assemble.real"),
    ("localization.assemble.self_s.complex", "self_s", "localization.assemble.complex"),
    ("localization.adjoint.self_s", "self_s", "localization.adjoint"),
    ("localization.measured_norm.self_s.p2", "self_s", "localization.measured_norm.p2"),
    ("localization.measured_norm.self_s.other", "self_s", "localization.measured_norm.other"),
    ("localization.singular_value_profile.self_s", "self_s",
     "localization.singular_value_profile"),
    ("localization.weak_form.self_s", "self_s", "localization.weak_form"),
    ("localization.probe_matrix.self_s", "self_s", "localization.probe_matrix"),
) + tuple((f"verify.{group}.s", "total_s", f"verify.{group}") for group in (
    "build_stack", "kernel_checks", "transform_checks", "translation_checks",
    "convolution_checks", "wavelet_checks", "operator_exact_checks",
    "operator_bound_checks", "example_checks")) + (
    ("report.rows_to_csv.self_s", "self_s", "report.rows_to_csv"),
    ("cli.cmd_verify.self_s", "self_s", "cli.cmd_verify"),
) + tuple((f"{layer}.exceptions", "exceptions", layer) for layer in LAYERS)

_UNITS = {"calls": "count", "exceptions": "count", "self_s": "s", "total_s": "s"}


def layer_metrics(summary: dict, overhead_s: float) -> dict:
    """The per-layer metric set named in BENCHMARK.json, as {name: (value, unit)}.

    Metrics of layers a workload does not reach read 0.
    """
    out = {name: (summary[table].get(key, 0), _UNITS[table])
           for name, table, key in LAYER_METRICS}
    svd_calls, svd_distinct = summary["svd_calls"], summary["svd_distinct"]
    out["localization.svd.calls"] = (svd_calls, "count")
    out["localization.svd.distinct"] = (svd_distinct, "count")
    out["localization.svd_useful_ratio"] = (
        svd_distinct / svd_calls if svd_calls else 0.0, "ratio")
    out["trace.spans"] = (summary["spans"], "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
