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
from .measure import (CantorDust, NaturalMeasure, _check_count,
                      atomic_write, cover, format_header, read_rows)


class SizingStatus(str, Enum):
    OK = "Ok"
    WARNING = "Warning"
    VIOLATION = "Violation"


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Finite (alpha, f) point list, alphas strictly increasing, with the
    sizes it was estimated at: sample size S, box count B, bin count A and
    bin width epsilon_alpha, and the sizing status, a SizingStatus or its
    value, with its notes. An S, B or A of 0 means the spectrum CSV it was
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
        eps_a = self.epsilon_alpha
        if not (math.isfinite(eps_a) and eps_a >= 0):
            raise FormatError("epsilon_alpha must be finite and >= 0, "
                              f"got {eps_a}")
        a, f = self.alphas, self.fs
        if not (isinstance(a, np.ndarray) and isinstance(f, np.ndarray)
                and a.ndim == 1 and f.shape == a.shape):
            raise FormatError(
                "alphas and fs must be 1-D arrays of one length, got "
                f"{type(a).__name__} {np.shape(a)} and "
                f"{type(f).__name__} {np.shape(f)}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(f))
                and np.all(np.diff(a) > 0)):
            raise FormatError("spectrum points must be finite, with "
                              "strictly increasing alphas")
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
    _check_count(A, 1, "bin count")
    if alphas.size == 0:
        raise ValueError("alpha field is empty")
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
    return the status with its notes. A box count below 2 or a bin count
    below 1 is refused first, as no sizing can make it usable.

    B up to twice sqrt(S) is tolerated as a Warning: pushing the box count
    past sqrt(S) trades smoothness for resolution but stays usable.
    """
    _check_count(B, 2, "box count", BadBoxCount)
    _check_count(A, 1, "bin count")
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
    """Full pipeline: cover, alpha field, histogram. Refuses sizing Violations
    unless force is set; the spectrum carries S and the sizing verdict."""
    status, notes = validate_sizing(dust.sample_size, B, A)
    if status is SizingStatus.VIOLATION and not force:
        raise SizingViolation("; ".join(notes))
    spec = histogram_spectrum(alpha_field(cover(dust, B)), B, A)
    return replace(spec, S=dust.sample_size, sizing=status,
                   sizing_notes=notes)


@dataclass(frozen=True)
class SweepEntry:
    B: int
    spectrum: Spectrum | None
    error: MfkError | None = None  # the refusal, when spectrum is None


def sweep_boxes(dust: CantorDust, B_list, A: int,
                force: bool = False) -> list[SweepEntry]:
    """Estimate one spectrum per distinct B and return one entry per listed
    B, a repeated B sharing its entry. A refusal of one B (its sizing or its
    box count) is recorded in its entry and the sweep goes on; any other
    error, such as a bad bin count, applies to every B and is raised."""
    done = {}
    for B in dict.fromkeys(B_list):
        try:
            done[B] = SweepEntry(B, estimate(dust, B, A, force=force))
        except (SizingViolation, BadBoxCount) as exc:
            done[B] = SweepEntry(B, None, exc)
    return [done[B] for B in B_list]


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
    meta = dict(pairs)
    if not rows:
        raise FormatError(f"{path}: not a spectrum CSV")
    alphas, fs = np.array(rows).T
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
