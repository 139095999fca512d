"""Spans around the public functions of each mfkappa module, from outside.

`Tracer.install()` rebinds module attributes (for example
`mfkappa.spectrum.cover`) to wrappers that record a span per call, and
`Tracer.uninstall()` puts the originals back. Nothing under `src/` knows
about tracing: the untraced benchmark run never calls `install()`.

A span is `(name, start, end, parent, op)`: `parent` is the index of the
enclosing span in `Tracer.spans` (None at top level) and `op` the id of the
benchmark operation it belongs to ("setup" during set-up). Spans stay in
memory; the benchmark writes them out when it ends.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

from mfkappa import cli, geometry, measure, oracles, spectrum, svgplot


def _cover_counts(args, kwargs, result):
    S = args[0].sample_size
    B = result.box_count
    # Computed, not measured: bytes the seed kernel touches per call --
    # read points, write int64 indices, clip them in place, bincount reads
    # them, then counts and mu (read counts, write mu).
    return {"cover_points": S, "cover_bytes": 40 * S + 24 * B}


def _read_dust_counts(args, kwargs, result):
    return {"read_dust_bytes": os.path.getsize(args[0])}


def _write_dust_counts(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"write_dust_bytes": os.path.getsize(path)}


def _sweep_counts(args, kwargs, result):
    return {"sweep_attempted": len(result),
            "sweep_ok": sum(e.spectrum is not None for e in result)}


# (module, attribute, span name, counter hook). A name appears under every
# module that binds it, so calls through any import path are seen.
TARGETS = [
    (cli, "main", "cli.main", None),
    (cli, "read_dust", "measure.read_dust", _read_dust_counts),
    (measure, "read_dust", "measure.read_dust", _read_dust_counts),
    (cli, "write_dust", "measure.write_dust", _write_dust_counts),
    (measure, "write_dust", "measure.write_dust", _write_dust_counts),
    (measure.CantorDust, "__post_init__", "measure.CantorDust", None),
    (measure, "cover", "measure.cover", _cover_counts),
    (spectrum, "cover", "measure.cover", _cover_counts),
    (spectrum, "alpha_field", "spectrum.alpha_field", None),
    (spectrum, "histogram_spectrum", "spectrum.histogram_spectrum", None),
    (spectrum, "estimate", "spectrum.estimate", None),
    (spectrum, "sweep_boxes", "spectrum.sweep_boxes", _sweep_counts),
    (spectrum, "read_spectrum_csv", "spectrum.read_spectrum_csv", None),
    (spectrum, "format_spectrum_csv", "spectrum.format_spectrum_csv", None),
    (geometry, "detect_segment", "geometry.detect_segment", None),
    (geometry, "detect_fragments", "geometry.detect_fragments", None),
    (svgplot, "detect_fragments", "geometry.detect_fragments", None),
    (geometry, "cap_shape_check", "geometry.cap_shape_check", None),
    (geometry, "features", "geometry.features", None),
    (geometry, "classify", "geometry.classify", None),
    (geometry, "compare_sweep", "geometry.compare_sweep", None),
    (oracles, "gen_selfsimilar", "oracles.gen_selfsimilar", None),
    (oracles, "gen_superposed", "oracles.gen_superposed", None),
    (oracles, "gen_farey", "oracles.gen_farey", None),
    (oracles, "gen_uniform", "oracles.gen_uniform", None),
    (svgplot, "render_spectra_svg", "svgplot.render_spectra_svg", None),
]

# Counted without a span: one call is one least-squares window fitted by
# detect_segment. A later kernel without this helper reports 0 fits.
COUNTED = [(geometry, "_line_fit_residual", "detect_segment_fits")]

SPAN_NAMES = sorted({name for _, _, name, _ in TARGETS})


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(Counter)  # op id -> counter
        self.op = None
        self.setup_wall = 0.0
        self._stack: list = []
        self._saved: list = []

    def _span(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, self.op)
            if hook is not None:
                self.counts[self.op].update(hook(args, kwargs, result))
            return result
        return wrapper

    def _counter(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self.op][key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for owner, attr, name, hook in TARGETS:
            if hasattr(owner, attr):
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._span(name, fn, hook))
        for owner, attr, key in COUNTED:
            if hasattr(owner, attr):
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._counter(key, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_times(self) -> dict:
        """{op id: {span name: summed self time}}; self time is a span's
        duration minus the durations of its children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, op in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict = defaultdict(Counter)
        for k, (name, t0, t1, parent, op) in enumerate(self.spans):
            out[op][name] += (t1 - t0) - child[k]
        return out

    def top_level_time(self) -> Counter:
        """{op id: summed duration of spans without a parent}."""
        out = Counter()
        for name, t0, t1, parent, op in self.spans:
            if parent is None:
                out[op] += t1 - t0
        return out

    def inclusive_time(self, name: str) -> float:
        return sum(t1 - t0 for n, t0, t1, _, _ in self.spans if n == name)
