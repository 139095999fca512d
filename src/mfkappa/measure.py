"""Cantor dusts on the unit segment and their box-cover natural measure.

A dust is a finite sorted point set in [0,1]; the natural measure at box
count B assigns each box the fraction of dust points it contains. Box i is
[i/B, (i+1)/B) for i < B-1; the last box is closed so the total count is
conserved with no double assignment.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import BadBoxCount, BadWindow, EmptySignal, FormatError


@dataclass(frozen=True)
class EventSignal:
    """Raw timestamped contact events plus experiment metadata."""

    events: np.ndarray            # strictly increasing times, seconds
    window: tuple[float, float]   # (t_start, t_end)
    meta: dict = field(default_factory=dict)  # e.g. kappa [g], nu [Hz]

    def __post_init__(self):
        ev = np.asarray(self.events, dtype=float)
        object.__setattr__(self, "events", ev)
        if ev.size == 0:
            raise EmptySignal("signal has no events")
        t0, t1 = self.window
        if not t0 < t1:
            raise BadWindow(f"window ({t0}, {t1}) is degenerate")
        if not np.all(np.diff(ev) > 0):
            raise FormatError("event times must be strictly increasing")
        if not (ev[0] >= t0 and ev[-1] <= t1):
            raise BadWindow("events fall outside the window")


@dataclass(frozen=True)
class CantorDust:
    """Finite sorted point set in [0,1]; the empirical fractal sample."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            raise EmptySignal("dust must contain at least one point")
        pts = np.sort(pts)
        if not (pts[0] >= 0.0 and pts[-1] <= 1.0):  # NaN sorts last
            raise FormatError("dust points must lie in [0,1]")
        object.__setattr__(self, "points", pts)

    @property
    def sample_size(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True)
class NaturalMeasure:
    """Per-box probabilities over B equal boxes covering [0,1]."""

    box_count: int
    counts: np.ndarray  # integer occupancy per box, sums to S

    @property
    def mu(self) -> np.ndarray:
        return self.counts / self.counts.sum()

    @property
    def box_length(self) -> float:
        return 1.0 / self.box_count

    @property
    def occupied(self) -> np.ndarray:
        return np.flatnonzero(self.counts > 0)


def normalize_signal(signal: EventSignal) -> CantorDust:
    """Map event times affinely onto the unit segment."""
    t0, t1 = signal.window
    return CantorDust((signal.events - t0) / (t1 - t0))


def cover(dust: CantorDust, B: int) -> NaturalMeasure:
    """Cover [0,1] with B equal boxes and count dust points per box.

    Counts are accumulated as integers and normalized once. Multiplying by
    2 commutes with IEEE rounding, so cover(dust, 2B) refines cover(dust, B)
    exactly.
    """
    if B < 2:
        raise BadBoxCount(f"need at least 2 boxes, got {B}")
    idx = (dust.points * B).astype(np.int64)
    np.clip(idx, 0, B - 1, out=idx)  # p == 1.0 goes to the closed last box
    counts = np.bincount(idx, minlength=B)
    return NaturalMeasure(box_count=B, counts=counts)


# --- file formats ---------------------------------------------------------

def read_rows(path, parse=float, header=None):
    """Read a text table: one row per line, converted by parse.

    Blank lines are skipped and '#' lines are comments; those of the form
    '# key=value' are collected into meta. If header is given, a line equal
    to it (case-insensitive) names the columns and must be present. Returns
    (meta, rows); a line parse rejects raises FormatError.
    """
    meta = {}
    rows = []
    saw_header = header is None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, eq, val = line.lstrip("#").partition("=")
                if eq:
                    meta[key.strip()] = val.strip()
                continue
            try:
                rows.append(parse(line))
            except ValueError:
                # looked for only here, so a row costs one parse
                if header is not None and line.lower() == header:
                    saw_header = True
                    continue
                raise FormatError(f"{path}:{lineno}: unreadable row: {line!r}")
    if not saw_header:
        raise FormatError(f"{path}: no {header!r} header line")
    return meta, rows


def read_dust(path) -> CantorDust:
    """Read a dust file: one real in [0,1] per line, '#' comments allowed."""
    _, points = read_rows(path)
    if not points:
        raise FormatError(f"{path}: no dust points")
    return CantorDust(np.array(points))


def read_events(path) -> EventSignal:
    """Read an event file: one time per line, '#' key=value headers.

    Recognized header keys: kappa, nu, t_start, t_end. If the window is not
    given it defaults to the span of the events.
    """
    meta, times = read_rows(path)
    if not times:
        raise EmptySignal(f"{path}: no events")
    try:
        t0 = float(meta.pop("t_start", times[0]))
        t1 = float(meta.pop("t_end", times[-1]))
        for key in ("kappa", "nu"):
            if key in meta:
                meta[key] = float(meta[key])
    except ValueError as exc:
        raise FormatError(f"{path}: bad header value: {exc}")
    return EventSignal(events=np.array(times), window=(t0, t1), meta=meta)


def write_dust(dust: CantorDust, path, header: dict | None = None) -> None:
    """Write a dust file atomically (temp file + rename)."""
    atomic_write(path, format_dust(dust, header))


def format_dust(dust: CantorDust, header: dict | None = None) -> str:
    lines = []
    for key, val in (header or {}).items():
        lines.append(f"# {key}={val}")
    lines.extend(repr(float(p)) for p in dust.points)
    return "\n".join(lines) + "\n"


def atomic_write(path, text: str) -> None:
    path = os.fspath(path)
    dirname = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=dirname, prefix=".mfk-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)  # read it: mkstemp's 0600 ignores it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
