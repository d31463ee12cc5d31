"""Layer spans for the degenkraw benchmark, installed from outside the package.

``Tracer.install()`` wraps the public functions named in ``TARGETS`` so that
every call records a span: its layer name, start, end and parent span.  All
spans of one child process belong to one CLI invocation, whose id the
tracer carries.  Spans are kept in flat in-memory arrays and written out
once, when the invocation ends.

Nothing inside degenkraw is edited.  A function is replaced in every
degenkraw module namespace (and module-level dict) that bound it, because
``from .x import y`` makes a second binding; a method is replaced on its
class, under every name that holds it (``__rmul__ = __mul__``).  An
``lru_cache`` function is wrapped outside its cache, so a cache hit is a
call with almost no self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (layer name, module, attribute path) for every span the benchmark records
TARGETS = (
    ("series.TSeries.mul", "degenkraw.series", "TSeries.__mul__"),
    ("series.TSeries.reciprocal", "degenkraw.series", "TSeries.reciprocal"),
    ("series.TSeries.log1", "degenkraw.series", "TSeries.log1"),
    ("series.TSeries.fracpow", "degenkraw.series", "TSeries.fracpow"),
    ("series.TSeries.compose", "degenkraw.series", "TSeries.compose"),
    ("series.XPoly.mul", "degenkraw.series", "XPoly.__mul__"),
    ("series.gen_binomial", "degenkraw.series", "gen_binomial"),
    ("combinat.varpi", "degenkraw.combinat", "varpi"),
    ("combinat.varrho", "degenkraw.combinat", "varrho"),
    ("combinat.rho_scaling", "degenkraw.combinat", "rho_scaling"),
    ("combinat.bell_partial", "degenkraw.combinat", "bell_partial"),
    ("combinat.faa_derivative", "degenkraw.combinat", "faa_derivative"),
    ("combinat.bracket_y", "degenkraw.combinat", "bracket_y"),
    ("combinat.epsilon", "degenkraw.combinat", "epsilon"),
    ("polys.K_series", "degenkraw.polys", "K_series"),
    ("polys.K_epsilon", "degenkraw.polys", "K_epsilon"),
    ("polys.K_from_P", "degenkraw.polys", "K_from_P"),
    ("polys.K_bell", "degenkraw.polys", "K_bell"),
    ("polys.K_stirling", "degenkraw.polys", "K_stirling"),
    ("polys.P_series", "degenkraw.polys", "P_series"),
    ("polys.P_bell", "degenkraw.polys", "P_bell"),
    ("polys.P_from_K", "degenkraw.polys", "P_from_K"),
    ("polys.P_from_K_stirling2", "degenkraw.polys", "P_from_K_stirling2"),
    ("polys.classical_K", "degenkraw.polys", "classical_K"),
    ("polys.monomial_from_K", "degenkraw.polys", "monomial_from_K"),
    ("polys.addition_P3", "degenkraw.polys", "addition_P3"),
    ("polys.addition_P4", "degenkraw.polys", "addition_P4"),
    ("polys.mu_coeffs", "degenkraw.polys", "mu_coeffs"),
    ("polys.c_coeffs", "degenkraw.polys", "c_coeffs"),
    ("operators.scaled_member", "degenkraw.operators", "scaled_member"),
    ("operators.translate", "degenkraw.operators", "translate"),
    ("measure.mixture_pmf", "degenkraw.measure", "MeasureModel.mixture_pmf"),
    ("measure.mixture_density", "degenkraw.measure", "MeasureModel.mixture_density"),
    ("measure.gamma_laplace", "degenkraw.measure", "MeasureModel.gamma_laplace"),
    ("measure.joint_laplace_oracle", "degenkraw.measure", "MeasureModel.joint_laplace_oracle"),
    ("measure.pmf", "degenkraw.measure", "MeasureModel.pmf"),
    ("measure.truncated_moment_sums", "degenkraw.measure", "MeasureModel.truncated_moment_sums"),
    ("measure.adaptive_cutoff", "degenkraw.measure", "MeasureModel.adaptive_cutoff"),
    ("measure.tail_bound", "degenkraw.measure", "MeasureModel.tail_bound"),
    ("measure.literal_moment_sums", "degenkraw.measure", "MeasureModel.literal_moment_sums"),
    ("measure.laplace_series", "degenkraw.measure", "laplace_series"),
    ("sampling.sample", "degenkraw.sampling", "sample"),
    ("sampling.histogram", "degenkraw.sampling", "histogram"),
    ("sampling.tv_distance", "degenkraw.sampling", "tv_distance"),
    ("audit.run_audit", "degenkraw.audit", "run_audit"),
    ("verify.verify_property", "degenkraw.verify", "verify_property"),
    ("cli", "degenkraw.cli", "main"),
    ("config.load_config", "degenkraw.config", "load_config"),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def _rebind(owner, original, replacement) -> int:
    """Replace `original` by `replacement` wherever the package bound it."""
    if isinstance(owner, type):
        names = [k for k, v in vars(owner).items() if v is original]
        for k in names:
            setattr(owner, k, replacement)
        return len(names)
    count = 0
    for name, mod in list(sys.modules.items()):
        if not (name == "degenkraw" or name.startswith("degenkraw.")):
            continue
        for k, v in list(vars(mod).items()):
            if v is original:
                setattr(mod, k, replacement)
                count += 1
            elif isinstance(v, dict):
                for dk, dv in list(v.items()):
                    if dv is original:
                        v[dk] = replacement
                        count += 1
    return count


def package_caches() -> dict:
    """Every lru_cache function defined in a degenkraw module, by layer name."""
    caches = {}
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith("degenkraw."):
            continue
        short = name.split(".", 1)[1]
        for k, v in vars(mod).items():
            if hasattr(v, "cache_info") and getattr(v, "__module__", None) == name:
                caches[f"{short}.{k}"] = v
    return caches


class Tracer:
    """Spans of one CLI invocation, recorded around the layers in TARGETS."""

    def __init__(self, invocation: str):
        self.invocation = invocation
        self.layer_names: list[str] = []
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.caches: dict = {}
        self.cutoff_total = 0
        self.compositions_yielded = 0
        self._in_compositions = False
        self.missing: list[str] = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every target; one that no longer exists is listed in ``missing``."""
        self.caches = package_caches()
        for layer, module, path in TARGETS:
            layer_id = len(self.layer_names)
            self.layer_names.append(layer)
            try:
                owner, _, original = _resolve(module, path)
            except (ImportError, AttributeError):
                self.missing.append(layer)
                continue
            wrapper = self._span_wrapper(layer_id, original)
            if layer == "measure.adaptive_cutoff":
                wrapper = self._cutoff_wrapper(wrapper)
            if _rebind(owner, original, wrapper) == 0:
                self.missing.append(layer)
        try:
            owner, _, original = _resolve("degenkraw.combinat", "compositions")
            _rebind(owner, original, self._compositions_wrapper(original))
        except (ImportError, AttributeError):
            self.missing.append("combinat.compositions")

    def _span_wrapper(self, layer_id: int, fn):
        layers, parents, starts, ends = (
            self.span_layer, self.span_parent, self.span_start, self.span_end
        )
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            layers.append(layer_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return span

    def _cutoff_wrapper(self, fn):
        @functools.wraps(fn)
        def cutoff(*args, **kwargs):
            n = fn(*args, **kwargs)
            self.cutoff_total += n
            return n

        return cutoff

    def _compositions_wrapper(self, fn):
        # compositions recurses through its module binding; only the
        # outermost generator's tuples are counted
        @functools.wraps(fn)
        def compositions(*args, **kwargs):
            if self._in_compositions:
                yield from fn(*args, **kwargs)
                return
            self._in_compositions = True
            try:
                for comp in fn(*args, **kwargs):
                    self.compositions_yielded += 1
                    yield comp
            finally:
                self._in_compositions = False

        return compositions

    # -- results ------------------------------------------------------------

    def spans(self) -> dict:
        """The span arrays, as numpy columns."""
        return {
            "layer": np.frombuffer(self.span_layer, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """Per-layer calls and self time, caller edges, cache and counters.

        A span's self time is its duration minus the durations of its direct
        child spans: the process is single-threaded, so children nest inside
        their parent and never overlap one another.
        """
        cols = self.spans()
        k = len(self.layer_names)
        dur = cols["end"] - cols["start"]
        calls = np.bincount(cols["layer"], minlength=k)
        self_s = np.bincount(cols["layer"], weights=dur, minlength=k)
        has_parent = cols["parent"] >= 0
        parent_layer = cols["layer"][cols["parent"][has_parent]]
        self_s -= np.bincount(parent_layer, weights=dur[has_parent], minlength=k)
        edge_ids = parent_layer.astype(np.int64) * k + cols["layer"][has_parent]
        edges = {}
        for eid, n in zip(*np.unique(edge_ids, return_counts=True)):
            caller, callee = divmod(int(eid), k)
            edges[f"{self.layer_names[caller]}>{self.layer_names[callee]}"] = int(n)
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        return {
            "invocation": self.invocation,
            "spans": int(len(dur)),
            "layers": {
                name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.layer_names)
            },
            "edges": edges,
            "caches": caches,
            "cutoff_total": self.cutoff_total,
            "compositions_yielded": self.compositions_yielded,
            "missing": self.missing,
        }

    def write_spans(self, path: str):
        """Write every span (layer id, parent span, start, end) and the layer names."""
        np.savez(
            path,
            invocation=np.array(self.invocation),
            layer_names=np.array(self.layer_names),
            **self.spans(),
        )
