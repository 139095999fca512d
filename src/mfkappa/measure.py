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
from itertools import chain

import numpy as np

from .errors import BadBoxCount, FormatError, SpecError

_CHUNK_LINES = 1 << 16  # write_dust's chunk: about 1.3 MB of dust text


# Each array a count sizes holds 8-byte items. numpy refuses one whose bytes
# pass intp's maximum, and np.arange one within 512 bytes of it (ValueError,
# not MemoryError). The - 1 leaves room for cover's B + 1 edges.
_MAX_COUNT = (np.iinfo(np.intp).max - 512) // 8 - 1


def _check_count(n: int, least: int, what: str, error=SpecError) -> None:
    """Refuse what, a count n that sizes an array, that is not an integer
    (a float, even a whole one, or a bool), below least or past
    _MAX_COUNT. Numpy integers are integers."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise error(f"{what} must be an integer, got {n!r}")
    if n < least:
        raise error(f"{what} must be >= {least}, got {n}")
    if n > _MAX_COUNT:
        raise error(f"{what} {n} exceeds the largest array length, "
                    f"{_MAX_COUNT}")


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
    _check_count(B, 2, "box count", BadBoxCount)
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
    # a byte that is not UTF-8 reads as a lone surrogate, which no parse
    # accepts, so its row is refused below with its line number
    with open(path, errors="surrogateescape") as fh:
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


def format_header(pairs, header=None) -> str:
    """The lines read_rows reads before the rows: '# key=value' per pair,
    then the header line, if given."""
    lines = [f"# {key}={val}" for key, val in pairs]
    if header is not None:
        lines.append(header)
    return "".join(line + "\n" for line in lines)


def read_dust(path) -> CantorDust:
    """Read a dust file: one real in [0,1] per line, '#' comments allowed."""
    _, points = read_rows(path)
    if not points:
        raise FormatError(f"{path}: no dust points")
    return CantorDust(np.array(points))


def write_dust(dust: CantorDust, path, header: dict | None = None) -> None:
    """Write a dust file atomically (temp file + rename), converting the
    points to text _CHUNK_LINES at a time."""
    pts = dust.points
    chunks = ("\n".join(map(repr, pts[i:i + _CHUNK_LINES].tolist())) + "\n"
              for i in range(0, pts.size, _CHUNK_LINES))
    atomic_write(path, chain([format_header((header or {}).items())], chunks))


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
