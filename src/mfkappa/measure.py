"""Cantor dusts on the unit segment and their box-cover natural measure.

A dust is a finite sorted point set in [0,1]; the natural measure at box
count B assigns each box the fraction of dust points it contains. Box i is
[i/B, (i+1)/B) for i < B-1; the last box is closed so the total count is
conserved with no double assignment.

CantorDust holds its points in order, as values and counts: each run of
bit-equal points is one value and its length, while the dust has at most
S // _RUN_SHARE runs, as a cascade dust does, whose S points take at most
2^depth values. A dust with more runs (uniform, Farey) holds every point as
a value and no counts. The cascade generators give their runs directly,
so such a dust never holds its S points; its points view builds them on
each access. cover keys each value once and counts it once per point of
its run, so the counts are those of keying every point, at O(values) cost
per box count.
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
# CantorDust's pass over its points (_order_and_runs)
_CHUNK_LINES = 1 << 16

# A dust holds its runs of equal points while it has at most S // _RUN_SHARE
# of them, and every point past that. The cap sets only how a dust is held:
# its memory, 16 bytes a run against 8 a point, and which writer write_dust
# uses. cover keys the values either way, with the same counts. 64 keeps the
# runs of a 1e6-point depth-13 cascade (8,106 values).
_RUN_SHARE = 64


# Each array a count sizes holds 8-byte items. numpy refuses one whose bytes
# pass intp's maximum, and np.arange one within 512 bytes of it (ValueError,
# not MemoryError). The - 1 is one item of margin below that.
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


def _order_and_runs(pts: np.ndarray, cap: int):
    """Whether pts is sorted, and the start index of each run of equal
    points, or None if pts is not sorted or has more than cap runs. One
    pass, a chunk at a time, with no S-byte temporary; runs are counted
    before their starts are made, so at most the kept starts are held.
    This is the one run rule of a dust: runs compare bits, so -0.0 and 0.0
    stay apart, though they share every key, and their reprs differ."""
    bits = pts.view(np.int64)
    starts, runs = [np.zeros(1, np.intp)], 1
    for i in range(0, pts.size, _CHUNK_LINES):
        c = pts[i:i + _CHUNK_LINES + 1]
        if not (c[1:] >= c[:-1]).all():
            return False, None
        if runs <= cap:
            b = bits[i:i + _CHUNK_LINES + 1]
            new = b[1:] != b[:-1]
            runs += np.count_nonzero(new)
            if runs <= cap:
                starts.append(np.flatnonzero(new) + (i + 1))
    return True, np.concatenate(starts) if runs <= cap else None


def _point_runs(pts: np.ndarray):
    """(values, counts) of the points pts, in any order: the sorted points
    as they are, and None, past S // _RUN_SHARE runs; otherwise each run's
    value and length. Only points out of order are sorted, so points in
    order keep their bits, -0.0 and 0.0 included. NaN fails the order check
    and sorts last."""
    in_order, starts = _order_and_runs(pts, pts.size // _RUN_SHARE)
    if not in_order:
        pts = np.sort(pts)
        starts = _order_and_runs(pts, pts.size // _RUN_SHARE)[1]
    if starts is None:
        return (np.array(pts) if in_order else pts), None
    return pts[starts], np.diff(starts, append=pts.size)


def _array(x) -> np.ndarray:
    """x as an array, or, where numpy cannot make one (a ragged list), an
    empty object array, which every check of a dtype's kind refuses."""
    try:
        return np.asarray(x)
    except ValueError:
        return np.array([], dtype=object)


def _joined_runs(values: np.ndarray, counts):
    """(values, counts) of runs given as values, in any order, and their
    positive integer counts: sorted by value (a stable sort, so runs of
    0.0 and -0.0 keep their given order), with bit-equal neighbours joined
    into one run, and expanded to the points, with counts None, past
    S // _RUN_SHARE runs, as _point_runs would hold them."""
    counts = _array(counts)
    # with no count past 2^53, the partial sums are exact up to the first
    # that passes 2^53, the largest total cover counts exactly
    if counts.dtype.kind not in "iu" or counts.shape != values.shape \
            or not (counts >= 1).all() or counts.max() > 2**53 \
            or (np.cumsum(counts) > 2**53).any():
        raise FormatError("dust counts must be positive integers, one "
                          "per value, with a total of at most 2**53")
    order = np.argsort(values, kind="stable")
    values, counts = values[order], counts[order].astype(np.int64, copy=False)
    del order  # the expansion below may hold S points
    in_order, starts = _order_and_runs(values, counts.sum() // _RUN_SHARE)
    if starts is None:  # past the cap, or a NaN sorted last: refused as is
        return (np.repeat(values, counts) if in_order else values), None
    return values[starts], np.add.reduceat(counts, starts)


@dataclass(frozen=True, eq=False)
class CantorDust:
    """Finite sorted point set in [0,1]; the empirical fractal sample.

    A dust holds values, its sorted points with each run of bit-equal
    points stored once (so they never decrease, and 0.0, -0.0, 0.0 are
    three runs), and counts, each run's length, while it has at most
    S // _RUN_SHARE runs. Past that it holds every point as a value, and
    counts is None. So a cascade dust holds at most 2^depth values and
    counts, and a dust of distinct points never holds an S-sized index.

    CantorDust(points) finds the runs in the pass that checks the points'
    order (see _order_and_runs), and sorts the points only if they are out
    of order. CantorDust(values, counts) takes runs in any order, as the
    cascade generators give them, and sorts and joins them (see
    _joined_runs) without making the S points. Either way the dust holds
    its own arrays. points builds the S sorted points on each access;
    sample_size does not.
    """

    values: np.ndarray
    counts: np.ndarray | None = None

    def __post_init__(self):
        values = _array(self.values)
        if values.dtype.kind not in "iuf" or values.ndim != 1:
            raise FormatError("dust points must be a 1-D array of real "
                              "numbers")
        values = values.astype(float, copy=False)
        if values.size == 0:
            raise FormatError("dust must contain at least one point")
        if self.counts is None:
            values, counts = _point_runs(values)
        else:
            values, counts = _joined_runs(values, self.counts)
        if not (values[0] >= 0.0 and values[-1] <= 1.0):
            raise FormatError("dust points must lie in [0,1]")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "counts", counts)

    @property
    def points(self) -> np.ndarray:
        """The S sorted points, the values each repeated by its count:
        8S bytes, built on each access."""
        return self.values if self.counts is None else np.repeat(self.values,
                                                                 self.counts)

    @property
    def sample_size(self) -> int:
        return int(self.values.size if self.counts is None
                   else self.counts.sum())


@dataclass(frozen=True, eq=False)
class NaturalMeasure:
    """Per-box probabilities over B equal boxes covering [0,1], from any
    1-D array of at least 2 finite nonnegative masses with a positive sum:
    point counts or exact weights alike."""

    counts: np.ndarray  # mass per box; B = counts.size

    @np.errstate(over="ignore")  # a float sum past the largest is inf: refused
    def __post_init__(self):
        counts = np.asarray(self.counts)
        # summed as floats (mu too): an int64 sum of large counts can wrap
        if not (counts.ndim == 1 and counts.size >= 2
                and counts.dtype.kind in "iuf" and counts.min() >= 0
                and 0 < counts.sum(dtype=float) < np.inf):
            raise FormatError("box masses must be a 1-D array of at least 2 "
                              "finite nonnegative numbers with a positive sum")
        object.__setattr__(self, "counts", counts)

    @property
    def box_count(self) -> int:
        return int(self.counts.size)

    @property
    def mu(self) -> np.ndarray:
        return self.counts / self.counts.sum(dtype=float)


def cover(dust: CantorDust, B: int) -> NaturalMeasure:
    """Cover [0,1] with B equal boxes and count dust points per box.

    A point p lies in box min(int(p*B), B-1), so the clamp puts p == 1.0 in
    the closed last box. Each value is keyed once and its run's count (1
    for a dust without counts, see CantorDust) added to its box, which is
    keying every point. The weighted counts are whole numbers of at most
    S, exact as floats while S <= 2^53, which CantorDust ensures.
    Multiplying by 2 commutes with IEEE rounding, so cover(dust, 2B) still
    refines cover(dust, B) exactly.
    """
    _check_count(B, 2, "box count", BadBoxCount)
    keys = np.minimum((dust.values * B).astype(np.int64), int(B) - 1)
    counts = np.bincount(keys, weights=dust.counts, minlength=int(B))
    return NaturalMeasure(counts.astype(np.int64, copy=False))


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
    together, so each run of them is converted once and repeated (see
    _runs_text). A run costs about 1.25 times a line of the plain join, so
    pts with fewer than a fifth of their lines repeated (5 runs >= 4 lines)
    are joined line by line."""
    starts = _order_and_runs(pts, (4 * pts.size - 1) // 5)[1]
    if starts is None:
        return "\n".join(map(repr, pts.tolist())) + "\n"
    return "".join(_runs_text(pts[starts], np.diff(starts, append=pts.size)))


def _runs_text(values: np.ndarray, counts: np.ndarray):
    """Yield the lines of the runs, each value's repr once per point of its
    run, as one text per run within each chunk of _CHUNK_LINES points: a
    run across a chunk's end is split there, so no text holds more than a
    chunk of lines, and each value is converted once in each chunk it
    reaches. Each text is written as it is made: joining a chunk's
    megabyte of text took fresh pages on every chunk in a process that had
    freed no large array."""
    ends = np.cumsum(counts)
    for lo in range(0, int(ends[-1]), _CHUNK_LINES):
        hi = lo + _CHUNK_LINES
        # runs a to b - 1 end past lo, and all but the last end before hi
        a = np.searchsorted(ends, lo, "right")
        b = np.searchsorted(ends, hi) + 1
        lines = [repr(v) + "\n" for v in values[a:b].tolist()]
        n = np.diff(np.clip(ends[a:b], lo, hi), prepend=lo)
        yield from map(str.__mul__, lines, n.tolist())


def write_dust(dust: CantorDust, path, header: dict | None = None) -> None:
    """Write a dust file atomically (temp file + rename), converting the
    points to text _CHUNK_LINES at a time: a dust with counts from its
    runs (_runs_text), without making its points, and any other dust from
    its points (_dust_text)."""
    pts = dust.values
    chunks = (_runs_text(pts, dust.counts) if dust.counts is not None else
              (_dust_text(pts[i:i + _CHUNK_LINES])
               for i in range(0, pts.size, _CHUNK_LINES)))
    atomic_write(path, chain([format_header((header or {}).items())], chunks))


def atomic_write(path, chunks) -> None:
    """Write the text chunks to path atomically (temp file + rename). An
    OSError names path, not the temporary file."""
    path = os.fspath(path)
    dirname = os.path.dirname(path) or "."
    try:
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
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
