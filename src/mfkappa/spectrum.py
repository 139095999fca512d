"""Histogram-method multifractal spectrum at a single box scale.

Per occupied box, the concentration alpha = ln(mu_i)/ln(eps_l); the spectrum
collects alphas into A equal-width bins and converts bin counts to dimensions
f = ln(N)/ln(1/eps_l). No cross-scale regression happens here: one spectrum
per box count B, with sweep_boxes exposing scale sensitivity instead.

Sizing discipline: the sample scale, box scale and bin scale must stay
separated, S >= B^2 and B >= A^2, with a tolerated band up to B <= 2*sqrt(S).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import BadBoxCount, FormatError, MfkError, SizingViolation
from .measure import (CantorDust, NaturalMeasure, _check_count, _check_real,
                      atomic_write, cover, format_header, read_rows)


# the least magnitude of a nonzero spectrum point; 1 / _POINT_MIN the most
_POINT_MIN = 2.0 ** -450


class SizingStatus(str, Enum):
    OK = "Ok"
    WARNING = "Warning"
    VIOLATION = "Violation"


@dataclass(frozen=True, eq=False)
class Spectrum:
    """(alpha, f) list of at least one point, alphas strictly increasing,
    each value 0 or of magnitude 2**-450 to 2**450, with the sizes it was
    estimated at: sample size S, box count B, bin count A and bin width
    epsilon_alpha, and the sizing status, a SizingStatus or its value, with
    its notes. An S, B or A of 0 means the spectrum CSV it was
    read from did not give it."""

    alphas: np.ndarray
    fs: np.ndarray
    S: int = 0
    B: int = 0
    A: int = 0
    epsilon_alpha: float = 0.0
    sizing: SizingStatus = SizingStatus.OK
    sizing_notes: tuple[str, ...] = ()

    def __post_init__(self):
        for name in ("S", "B", "A"):
            _check_count(getattr(self, name), 0, name, FormatError)
        # held as a float: the CSV header writes its repr, and numpy's
        # np.float64(0.1) is not a number read_spectrum_csv takes
        eps_a = _check_real(self.epsilon_alpha, "epsilon_alpha", FormatError)
        if not (math.isfinite(eps_a) and eps_a >= 0):
            raise FormatError("epsilon_alpha must be finite and >= 0, "
                              f"got {eps_a}")
        object.__setattr__(self, "epsilon_alpha", eps_a)
        a, f = self.alphas, self.fs
        if not (isinstance(a, np.ndarray) and isinstance(f, np.ndarray)
                and a.ndim == 1 and a.size and f.shape == a.shape):
            raise FormatError(
                "alphas and fs must be 1-D arrays of one length >= 1, got "
                f"{type(a).__name__} {np.shape(a)} and "
                f"{type(f).__name__} {np.shape(f)}")
        # each value 0 or of magnitude 2**-450 to 2**450, so finite and
        # within half the float range of one another and of 0 and 1, which
        # a plot takes too (svgplot._limits): no difference of two values,
        # the alpha span, nor a plot's margins can overflow. classify's
        # line fits sum squares of differences of alphas: those of two
        # distinct values of this range, at least 2**-502 apart, are normal
        # floats, and up to 2**100 of them sum to a finite one
        size = np.abs(np.concatenate([a, f]))
        if not np.all((size == 0) | ((size >= _POINT_MIN)
                                     & (size <= 1 / _POINT_MIN))):
            raise FormatError("spectrum points must be 0 or of magnitude "
                              "from 2**-450 to 2**450")
        if not np.all(a[1:] > a[:-1]):  # a NaN was refused as a value
            raise FormatError("spectrum points must have strictly "
                              "increasing alphas")
        try:
            object.__setattr__(self, "sizing", SizingStatus(self.sizing))
        except ValueError:
            raise FormatError("sizing must be Ok, Warning or Violation, "
                              f"got {self.sizing!r}") from None
        if isinstance(self.sizing_notes, str):  # not one note per character
            raise FormatError("sizing_notes must be a sequence of strings, "
                              f"got the string {self.sizing_notes!r}")
        object.__setattr__(self, "sizing_notes", tuple(self.sizing_notes))

    def __len__(self) -> int:
        return int(self.alphas.size)


def alpha_field(measure: NaturalMeasure) -> np.ndarray:
    """Compute alpha = ln(mu)/ln(eps_l) for every occupied box."""
    log_eps = math.log(1.0 / measure.box_count)  # -log(B) may differ by 1 ulp
    mu = measure.mu
    return np.log(mu[mu > 0]) / log_eps


def histogram_spectrum(alphas: np.ndarray, B: int, A: int) -> Spectrum:
    """Bin the alphas of B boxes into A equal-width bins; emit (alpha, f).

    Bins span [min(alpha), max(alpha)], last bin closed; a bin holding N
    boxes contributes the point (bin midpoint, ln N / ln B). Empty bins are
    omitted. If all alphas coincide the spectrum collapses to one point.
    """
    _check_count(B, 2, "box count", BadBoxCount)
    _check_count(A, 1, "bin count")
    if alphas.size == 0:
        raise MfkError("alpha field is empty")
    a_lo = float(alphas.min())
    a_hi = float(alphas.max())
    log_b = math.log(B)
    if a_hi == a_lo:
        eps_a = 0.0
        mids = np.array([a_lo])
        fs = np.array([math.log(alphas.size) / log_b])
    else:
        eps_a = (a_hi - a_lo) / A
        bins = ((alphas - a_lo) / eps_a).astype(np.int64)
        np.clip(bins, 0, A - 1, out=bins)  # closed last bin
        counts = np.bincount(bins, minlength=A)
        occupied = np.flatnonzero(counts)
        mids = a_lo + (occupied + 0.5) * eps_a
        fs = np.log(counts[occupied]) / log_b
    return Spectrum(mids, fs, B=B, A=A, epsilon_alpha=eps_a)


def validate_sizing(S: int, B: int,
                    A: int) -> tuple[SizingStatus, tuple[str, ...]]:
    """Check the scale-separation inequalities S >= B^2 and B >= A^2, and
    return the status with its notes. A sample size or bin count below 1,
    or a box count below 2, is refused first, as no sizing can make it usable.

    B up to twice sqrt(S) is tolerated as a Warning: pushing the box count
    past sqrt(S) trades smoothness for resolution but stays usable.
    """
    _check_count(B, 2, "box count", BadBoxCount)
    _check_count(A, 1, "bin count")
    _check_count(S, 1, "sample size")
    msgs = []
    violated = False
    if S < B * B:
        if B <= 2 * math.sqrt(S):
            msgs.append(f"B={B} exceeds sqrt(S)={math.sqrt(S):.6g}: "
                        "spectrum smoothness at risk")
        else:
            msgs.append(f"S >= B^2 violated: S={S} < B^2={B * B}")
            violated = True
    if B < A * A:
        msgs.append(f"B >= A^2 violated: B={B} < A^2={A * A}")
        violated = True
    if violated:
        return SizingStatus.VIOLATION, tuple(msgs)
    if msgs:
        return SizingStatus.WARNING, tuple(msgs)
    return SizingStatus.OK, ()


def auto_size(S: int) -> tuple[int, int]:
    """Pick B = floor(sqrt(S)) and A slightly below sqrt(B), floored at 3
    but never past floor(sqrt(B)), so that the pair sizes Ok."""
    if S < 16:
        raise MfkError(f"auto-sizing needs S >= 16, got {S}")
    B = math.isqrt(S)
    root = math.isqrt(B)
    return B, min(max(3, root - 1), root)


def estimate(dust: CantorDust, B: int, A: int, force: bool = False) -> Spectrum:
    """Full pipeline, sweep_boxes over the one box count B, raising its
    refusal: a B that is not a box count, or a sizing Violation unless
    force is set. The spectrum carries S and the sizing verdict."""
    (entry,) = sweep_boxes(dust, [B], A, force)
    if entry.error is not None:
        raise entry.error
    return entry.spectrum


@dataclass(frozen=True)
class SweepEntry:
    B: int
    spectrum: Spectrum | None
    error: MfkError | None = None  # the refusal, when spectrum is None


def sweep_boxes(dust: CantorDust, B_list, A: int,
                force: bool = False) -> list[SweepEntry]:
    """Estimate one spectrum per distinct B and return one entry per listed
    B, a repeated B that sizes sharing its entry. Each listed B is sized
    first, in order, before it is merged with an equal B, so that 100.0 or
    [100] is refused even beside 100: a refusal of one B (its sizing or its
    box count) is recorded in its entry and the sweep goes on; any other
    error, such as a bad bin count, applies to every B and is raised. The
    Bs that size are then covered one at a time (see cover), and each
    cover's alpha field is binned into a Spectrum that carries S and the
    sizing verdict."""
    S = dust.sample_size
    refused, sized = {}, {}
    for k, B in enumerate(B_list):
        try:
            status, notes = validate_sizing(S, B, A)
            if status is SizingStatus.VIOLATION and not force:
                raise SizingViolation("; ".join(notes))
        except (SizingViolation, BadBoxCount) as exc:
            refused[k] = SweepEntry(B, None, exc)
        else:
            sized.setdefault(B, (status, notes))
    done = {}
    for B, (status, notes) in sized.items():
        measure = cover(dust, B)
        spec = histogram_spectrum(alpha_field(measure), measure.box_count, A)
        done[B] = SweepEntry(B, replace(spec, S=S, sizing=status,
                                        sizing_notes=notes))
    return [refused.get(k) or done[B] for k, B in enumerate(B_list)]


# --- spectrum CSV ---------------------------------------------------------

def format_spectrum_csv(spec: Spectrum) -> str:
    pairs = [("S", spec.S), ("B", spec.B), ("A", spec.A),
             ("epsilon_alpha", repr(spec.epsilon_alpha)),
             ("sizing", spec.sizing.value)]
    pairs += [("sizing_note", msg) for msg in spec.sizing_notes]
    rows = map("{!r},{!r}\n".format, spec.alphas.tolist(), spec.fs.tolist())
    return "".join([format_header(pairs, "alpha,f"), *rows])


def write_spectrum_csv(spec: Spectrum, path) -> None:
    atomic_write(path, [format_spectrum_csv(spec)])


def _alpha_f_row(line):
    alpha, f = line.split(",")  # ValueError unless exactly two fields
    return float(alpha), float(f)


def read_spectrum_csv(path) -> Spectrum:
    """Read a spectrum CSV; rows may come in any order."""
    pairs, rows = read_rows(path, parse=_alpha_f_row, header="alpha,f")
    if not rows:
        raise FormatError(f"{path}: no alpha,f rows")
    meta = dict(pairs)
    alphas, fs = np.array(rows).reshape(-1, 2).T
    order = np.argsort(alphas)
    try:
        return Spectrum(
            alphas[order], fs[order], S=int(meta.get("S", 0)),
            B=int(meta.get("B", 0)), A=int(meta.get("A", 0)),
            epsilon_alpha=float(meta.get("epsilon_alpha", 0.0)),
            sizing=meta.get("sizing", "Ok"),
            sizing_notes=[v for k, v in pairs if k == "sizing_note"])
    except (ValueError, FormatError) as exc:
        raise FormatError(f"{path}: {exc}") from None
