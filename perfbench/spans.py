"""In-memory span tracer for the codedmask layers.

``Tracer.install`` wraps the public functions listed in ``LAYERS`` and
rebinds every module attribute of the ``codedmask`` package that refers to
them, so calls made through ``from .waterfill import optimal_rho`` are seen
too.  The package source is not touched.  Each span is
``[name, start, end, parent, op]``; a span's self time is its duration minus
that of its direct children.  Functions missing from the package (renamed or
deleted by a later change) are skipped, and their metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

# module -> public functions timed as spans
LAYERS = {
    "model": ("lmmse", "best_random_onoff", "sample_prior"),
    "spectra": ("basis_matrix", "beta"),
    "waterfill": ("optimal_rho", "lower_bound", "waterfill"),
    "flatseq": ("flat_design", "residue_sequence"),
    "nazarov": ("design_aperture", "design_aperture_2d", "greedy_cortege",
                "cortege_to_bounded"),
    "cli": ("main", "cmd_design", "cmd_sweep", "write_aperture_file"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []
        self._misses_seen = 0

    def install(self) -> None:
        package = [m for name, m in list(sys.modules.items())
                   if name == "codedmask" or name.startswith("codedmask.")]
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"codedmask.{layer}")
            for fname in names:
                orig = getattr(module, fname, None)
                if orig is None:
                    continue
                after = getattr(self, f"_after_{fname}", None)
                _rebind(package, orig, self._wrap(f"{layer}.{fname}", orig,
                                                  after))
        nazarov = importlib.import_module("codedmask.nazarov")
        sweep = getattr(nazarov, "_sweep_to_local_max", None)
        if sweep is not None:
            _rebind(package, sweep, self._count_sweeps(sweep))

    def _wrap(self, name, fn, after):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            result = exc = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if after is not None:
                    after(args, result, exc)
        return wrapper

    def _count_sweeps(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(signs, *args, **kwargs):
            out = fn(signs, *args, **kwargs)
            _, _, trace, sweeps, _ = out
            counts["nazarov.greedy.sweeps"] += sweeps
            counts["nazarov.greedy.flips_accepted"] += len(trace) - 1
            counts["nazarov.greedy.flip_candidates"] += sweeps * len(signs)
            return out
        return wrapper

    def _after_basis_matrix(self, args, result, exc):
        info = _basis_cache_info()
        if info is None or exc is not None:
            return
        misses = info.misses - self._misses_seen
        self._misses_seen = info.misses
        if misses > 0:
            self.counts["spectra.basis_matrix.bytes"] += \
                misses * result.shape[0] ** 2 * 8

    def _after_cortege_to_bounded(self, args, result, exc):
        if exc is not None and type(exc).__name__ == "TransferError":
            self.counts["nazarov.transfer_failures"] += 1

    def _after_design_aperture(self, args, result, exc):
        if result is not None:
            self.counts["nazarov.restarts"] += result[1].restarts

    _after_design_aperture_2d = _after_design_aperture

    def _after_write_aperture_file(self, args, result, exc):
        if exc is None:
            self.counts["cli.write_aperture_file.bytes"] += \
                os.path.getsize(args[0])

    def cache_counts(self) -> tuple[int, int]:
        """(hits, misses) of the basis-matrix cache so far; (0, 0) if absent."""
        info = _basis_cache_info()
        return (0, 0) if info is None else (info.hits, info.misses)


def _basis_cache_info():
    spectra = sys.modules.get("codedmask.spectra")
    cached = getattr(spectra, "_basis_matrix_cached", None)
    return cached.cache_info() if hasattr(cached, "cache_info") else None


def _rebind(modules, orig, wrapped) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapped)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out
