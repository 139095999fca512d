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
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import BadBoxCount, FormatError, SpecError

_CHUNK_LINES = 1 << 16  # format_rows' chunk: about 1.3 MB of dust text


def _check_array_size(n: int, what: str, error=SpecError) -> None:
    """Refuse what, an array of n elements, when n is past the largest
    length an array can have."""
    if n > np.iinfo(np.intp).max:
        raise error(f"{what} exceeds the largest array length, "
                    f"{np.iinfo(np.intp).max}")


@dataclass(frozen=True, eq=False)
class CantorDust:
    """Finite sorted point set in [0,1]; the empirical fractal sample."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            raise FormatError("dust must contain at least one point")
        pts = np.sort(pts)
        if not (pts[0] >= 0.0 and pts[-1] <= 1.0):  # NaN sorts last
            raise FormatError("dust points must lie in [0,1]")
        object.__setattr__(self, "points", pts)

    @property
    def sample_size(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True, eq=False)
class NaturalMeasure:
    """Per-box probabilities over B equal boxes covering [0,1], from any
    nonnegative mass per box: point counts or exact weights alike."""

    counts: np.ndarray  # mass per box; B = counts.size

    @property
    def box_count(self) -> int:
        return int(self.counts.size)

    @property
    def mu(self) -> np.ndarray:
        return self.counts / self.counts.sum()


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
    _check_array_size(B + 1, f"box count {B} plus one edge", BadBoxCount)
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
    return NaturalMeasure(np.diff(below))


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


def format_rows(pairs, rows, header=None):
    """The table read_rows reads: '# key=value' pairs, header, rows.

    Yields the text in chunks of at most _CHUNK_LINES lines, so a writer
    never holds the whole table at once.
    """
    lines = chain((f"# {key}={val}" for key, val in pairs),
                  () if header is None else (header,), rows)
    while chunk := list(islice(lines, _CHUNK_LINES)):
        yield "\n".join(chunk) + "\n"


def read_dust(path) -> CantorDust:
    """Read a dust file: one real in [0,1] per line, '#' comments allowed."""
    _, points = read_rows(path)
    if not points:
        raise FormatError(f"{path}: no dust points")
    return CantorDust(np.array(points))


def write_dust(dust: CantorDust, path, header: dict | None = None) -> None:
    """Write a dust file atomically (temp file + rename)."""
    pts = dust.points  # converted to Python floats one chunk at a time
    rows = chain.from_iterable(map(repr, pts[i:i + _CHUNK_LINES].tolist())
                               for i in range(0, pts.size, _CHUNK_LINES))
    atomic_write(path, format_rows((header or {}).items(), rows))


def atomic_write(path, chunks) -> None:
    """Write the text chunks to path atomically (temp file + rename)."""
    path = os.fspath(path)
    dirname = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=dirname, prefix=".mfk-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
            fh.flush()
            os.fsync(fh.fileno())  # on disk before the rename publishes it
        umask = os.umask(0)  # read it: mkstemp's 0600 ignores it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
