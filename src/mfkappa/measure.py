"""Cantor dusts on the unit segment and their box-cover natural measure.

A dust is a finite sorted point set in [0,1]; the natural measure at box
count B assigns each box the fraction of dust points it contains. Box i is
[i/B, (i+1)/B) for i < B-1; the last box is closed so the total count is
conserved with no double assignment.

CantorDust puts its points in order once, on construction: it checks the
order, and sorts only if needed. Every consumer relies on that order: cover
finds the box boundaries by bisection on the sorted points, at O(B log S)
cost rather than O(S).
"""

from __future__ import annotations

import numbers
import os
import tempfile
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import BadBoxCount, FormatError, SpecError

# points per chunk of write_dust (about 1.3 MB of dust text) and of
# CantorDust's order check
_CHUNK_LINES = 1 << 16


# Each array a count sizes holds 8-byte items. numpy refuses one whose bytes
# pass intp's maximum, and np.arange one within 512 bytes of it (ValueError,
# not MemoryError). The - 1 leaves room for cover's B + 1 edges.
_MAX_COUNT = (np.iinfo(np.intp).max - 512) // 8 - 1


def _check_integer(n: int, what: str, error=SpecError) -> None:
    """Refuse what, an n that is not an integer: a float, even a whole one,
    or a bool. Numpy integers are integers."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise error(f"{what} must be an integer, got {n!r}")


def _check_real(x, what: str, error=SpecError) -> float:
    """x as a float; refuse what, an x that is a bool or not a real number.
    A float is what a header line and a JSON report can hold."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise error(f"{what} must be a real number, got {x!r}")
    return float(x)


def _check_count(n: int, least: int, what: str, error=SpecError) -> None:
    """Refuse what, a count n that sizes an array, that is not an integer
    (see _check_integer), below least or past _MAX_COUNT."""
    _check_integer(n, what, error)
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
        # checked a chunk at a time, with no S-byte temporary; NaN fails the
        # check and sorts last. Either way the dust holds its own copy.
        chunks = (pts[i:i + _CHUNK_LINES + 1]
                  for i in range(0, pts.size, _CHUNK_LINES))
        in_order = all((c[1:] >= c[:-1]).all() for c in chunks)
        pts = np.array(pts) if in_order else np.sort(pts)
        if not (pts[0] >= 0.0 and pts[-1] <= 1.0):
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
    looked for only in a line parse rejects. A line equal to the last line
    parse accepted reuses that row, so a run of equal lines, such as a
    sorted dust's repeated points, costs one parse.
    Returns (pairs, rows); any other line parse rejects raises FormatError.
    """
    pairs = []
    rows = []
    saw_header = header is None
    last = row = None  # the last line parse accepted, and its row
    # a byte that is not UTF-8 reads as a lone surrogate, which no parse
    # accepts, so its row is refused below with its line number
    with open(path, errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            if line == last:
                rows.append(row)
                continue
            try:
                row = parse(line)
            except ValueError:
                line = line.strip()
            else:
                rows.append(row)
                last = line
                continue
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
    then the header line, if given. A key or value that holds a line break
    would put a line of its own into the file, and a key that holds '=' would
    be read back split at it, so either is refused."""
    lines = []
    for key, val in pairs:
        line = f"# {key}={val}"
        if "=" in str(key) or "\n" in line or "\r" in line:
            raise FormatError(f"header line {line!r} does not read back "
                              "as one '# key=value' pair")
        lines.append(line)
    if header is not None:
        lines.append(header)
    return "".join(line + "\n" for line in lines)


def read_dust(path) -> CantorDust:
    """Read a dust file: one real in [0,1] per line, '#' comments allowed."""
    _, points = read_rows(path)
    if not points:
        raise FormatError(f"{path}: no dust points")
    return CantorDust(np.array(points))


def _dust_text(pts: np.ndarray) -> str:
    """The lines of sorted points pts, one repr per point. Equal points sit
    together, so each run of them is converted once and repeated. Runs
    compare bits, since -0.0 == 0.0 but their reprs differ. A run costs
    about 1.25 times a line of the plain join, so pts with fewer than a
    fifth of their lines repeated are joined line by line."""
    bits = pts.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    if 5 * starts.size >= 4 * pts.size:
        return "\n".join(map(repr, pts.tolist())) + "\n"
    lines = [repr(v) + "\n" for v in pts[starts].tolist()]
    return "".join(map(str.__mul__, lines,
                       np.diff(starts, append=pts.size).tolist()))


def write_dust(dust: CantorDust, path, header: dict | None = None) -> None:
    """Write a dust file atomically (temp file + rename), converting the
    points to text _CHUNK_LINES at a time; see _dust_text."""
    pts = dust.points
    chunks = (_dust_text(pts[i:i + _CHUNK_LINES])
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
