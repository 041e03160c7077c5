"""Spans and counts recorded from outside photherm.

`Tracer.install` replaces public photherm functions at their module
attributes, including the names that other photherm modules imported, with
wrappers that record a span (name, start, end, parent span) per call. Two
hot scalar helpers of the census get a call count instead of a span.
`uninstall` puts the original functions back. Spans stay in memory; the
workload writes them out when it ends.

Results that a layer hands back at its boundary (cache hit, accepted and
rejected steps, Newton steps, Krylov evaluations) are counted per operation
in `op_counts`, so they can be compared with what the same operation wrote
to its run manifest.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from pathlib import Path

import numpy as np

# (module, function, kind): "span" records a span, "count" a call count.
TARGETS = (
    ("modes", "solve_modes", "span"),
    ("modes", "scan_eigenfrequencies", "span"),
    ("modes", "normalize_modes", "span"),
    ("modes", "count_peaks", "span"),
    ("modes", "mismatch", "count"),
    ("modes", "count_below", "count"),
    ("bands", "band_structure", "span"),
    ("pipeline", "load_or_solve_modes", "span"),
    ("kinetics", "build_tables", "span"),
    ("kinetics", "rhs", "span"),
    ("kinetics", "affine_coefficients", "span"),
    ("kinetics", "quasi_steady_photon", "span"),
    ("integrate", "integrate", "span"),
    ("steady", "solve_steady", "span"),
    ("steady", "seed_guess", "span"),
    ("steady", "scaled_residual", "span"),
    ("spectra", "emission_detector", "span"),
    ("spectra", "blackbody_1d", "span"),
    ("csvio", "write_csv", "span"),
    ("csvio", "read_csv", "span"),
)
# Modules whose attributes are rebound; "" is the package namespace itself.
PATCHED_MODULES = (
    "",
    "modes",
    "bands",
    "atoms",
    "kinetics",
    "integrate",
    "steady",
    "spectra",
    "csvio",
    "pipeline",
)
# How many times one call streams the coupling table W (or its transpose).
KERNEL_STREAMS = {
    "kinetics.rhs": 2,
    "kinetics.affine_coefficients": 2,
    "kinetics.quasi_steady_photon": 1,
}


def _tables_of(args, kwargs):
    return kwargs["tables"] if "tables" in kwargs else args[1]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_counts: Counter = Counter()
        self._saved: list[tuple] = []

    # --- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack = self.spans, self.stack
        after = self._after(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if after is not None:
                after(args, kwargs, result, span)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after(self, name: str):
        """Hook reading a layer's result at its boundary, or None."""
        c = self.counts

        def record(key, value):
            c[key] += value
            self.op_counts[key] += value

        if name in KERNEL_STREAMS:
            streams = KERNEL_STREAMS[name]
            return lambda a, k, r, s: c.update(
                kernel_bytes=streams * _tables_of(a, k).W.nbytes
            )
        if name == "pipeline.load_or_solve_modes":

            def after(args, kwargs, result, span):
                record("cache_hits" if result[1] else "cache_misses", 1)
                if result[1]:
                    c["cache_load_s"] += span[2] - span[1]

            return after
        if name == "modes.solve_modes":
            return lambda a, k, r, s: c.update(n_modes=r.n_modes)
        if name == "kinetics.build_tables":
            def after(args, kwargs, result, span):
                size = sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))
                c["tables_bytes"] = max(c["tables_bytes"], size)

            return after
        if name == "integrate.integrate":

            def after(args, kwargs, result, span):
                for key in ("accepted_steps", "rejected_steps"):
                    record(key, result.metadata.get(key, 0))

            return after
        if name == "steady.solve_steady":

            def after(args, kwargs, result, span):
                record("newton_steps", result.iterations.get("newton", 0))
                record("krylov_evals", result.iterations.get("krylov", 0))

            return after
        if name == "csvio.write_csv":
            return lambda a, k, r, s: c.update(write_bytes=Path(r).stat().st_size)
        if name == "csvio.read_csv":
            return lambda a, k, r, s: c.update(
                read_bytes=Path(k["path"] if "path" in k else a[0]).stat().st_size
            )
        return None

    # --- operations -----------------------------------------------------------

    def begin(self, label: str) -> None:
        """Open the root span of one benchmark operation."""
        self.op_counts = Counter()
        self.spans.append(["op:" + label, time.perf_counter(), 0.0, -1])
        self.stack.append(len(self.spans) - 1)

    def end(self) -> Counter:
        self.spans[self.stack.pop()][2] = time.perf_counter()
        return self.op_counts

    # --- installation ---------------------------------------------------------

    def install(self, package: str = "photherm") -> None:
        wrappers = {}
        for mod_name, fn_name, kind in TARGETS:
            fn = getattr(importlib.import_module(f"{package}.{mod_name}"), fn_name, None)
            if fn is None:  # a layer function that no longer exists reads as 0
                continue
            name = f"{mod_name}.{fn_name}"
            wrappers[id(fn)] = (
                self._span(name, fn) if kind == "span" else self._count(name, fn)
            )
        for mod_name in PATCHED_MODULES:
            module = importlib.import_module(
                f"{package}.{mod_name}" if mod_name else package
            )
            for attr, value in list(vars(module).items()):
                if callable(value) and id(value) in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    # --- reduction ------------------------------------------------------------

    def span_times(self) -> tuple[Counter, Counter]:
        """(self seconds, inclusive seconds) summed per span name.

        Self time is a span's duration minus the time its child spans cover.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: Counter = Counter()
        total: Counter = Counter()
        for (name, start, end, _), covered in zip(self.spans, child):
            own[name] += end - start - covered
            total[name] += end - start
        return own, total

    def span_calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)
