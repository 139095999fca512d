"""Cantor dusts on the unit segment and their box-cover natural measure.

A dust is a finite sorted point set in [0,1]; the natural measure at box
count B assigns each box the fraction of dust points it contains. Box i is
[i/B, (i+1)/B) for i < B-1; the last box is closed so the total count is
conserved with no double assignment.

CantorDust sorts its points once, on construction, and every consumer
relies on that order: cover finds the box boundaries by bisection on the
sorted points, at O(B log S) cost rather than O(S).
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

    A point p lies in box min(int(p*B), B-1). Multiplying by B is monotone
    under IEEE rounding, so that key never decreases along the sorted
    points CantorDust guarantees: box i holds the points from the first
    whose key is >= i up to the first whose key is >= i+1. One bisection,
    vectorised over i = 0..B, finds those indices in O(B log S) work
    instead of keying all S points. It bisects on the key itself, not on
    the edge i/B, so points on an edge, at 1.0 or an ulp off an edge land
    in the box the key gives them. Multiplying by 2 commutes with IEEE
    rounding, so cover(dust, 2B) refines cover(dust, B) exactly.
    """
    if B < 2:
        raise BadBoxCount(f"need at least 2 boxes, got {B}")
    points = dust.points
    S = points.size
    boxes = np.arange(B + 1)
    below = np.zeros(B + 1, dtype=np.int64)  # points known to key below i
    step = 1 << (S.bit_length() - 1)  # largest power of two <= S
    while step:
        probe = below + step
        key = (points[np.minimum(probe, S) - 1] * B).astype(np.int64)
        np.minimum(key, B - 1, out=key)  # p == 1.0 goes to the closed last box
        below = np.where((probe <= S) & (key < boxes), probe, below)
        step >>= 1
    return NaturalMeasure(box_count=B, counts=np.diff(below))


# --- file formats ---------------------------------------------------------

def read_rows(path, parse=float, header=None):
    """Read a text table: one row per line, converted by parse.

    Blank lines are skipped and '#' lines are comments; those of the form
    '# key=value' are collected as (key, value) pairs in file order, so a
    repeated key keeps every value. If header is given, a line equal to it
    (case-insensitive) names the columns and must be present. These are
    looked for only in a line parse rejects, so a row costs one parse.
    Returns (pairs, rows); any other line parse rejects raises FormatError.
    """
    pairs = []
    rows = []
    saw_header = header is None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                rows.append(parse(line))
                continue
            except ValueError:
                line = line.strip()
            if line.startswith("#"):
                key, eq, val = line.lstrip("#").partition("=")
                if eq:
                    pairs.append((key.strip(), val.strip()))
            elif header is not None and line.lower() == header:
                saw_header = True
            elif line:
                try:  # strip, unlike float, drops \x1c-\x1f too
                    rows.append(parse(line))
                except ValueError:
                    raise FormatError(
                        f"{path}:{lineno}: unreadable row: {line!r}")
    if not saw_header:
        raise FormatError(f"{path}: no {header!r} header line")
    return pairs, rows


def format_rows(pairs, rows, header=None) -> str:
    """The table read_rows reads: '# key=value' pairs, header, rows."""
    lines = [f"# {key}={val}" for key, val in pairs]
    if header is not None:
        lines.append(header)
    lines.extend(rows)
    return "\n".join(lines) + "\n"


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
    pairs, times = read_rows(path)
    meta = dict(pairs)  # a repeated key: the last value holds
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
    points = map(repr, dust.points.tolist())
    atomic_write(path, format_rows((header or {}).items(), points))


def atomic_write(path, text: str) -> None:
    path = os.fspath(path)
    dirname = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=dirname, prefix=".mfk-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())  # on disk before the rename publishes it
        umask = os.umask(0)  # read it: mkstemp's 0600 ignores it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
