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
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import (BadBoxCount, FormatError, MfkError, SizingViolation,
                     SpecError, TooFewSamples)
from .measure import (CantorDust, NaturalMeasure, atomic_write, cover,
                      format_rows, read_rows)


class SizingStatus(str, Enum):
    OK = "Ok"
    WARNING = "Warning"
    VIOLATION = "Violation"


@dataclass(frozen=True)
class SizingVerdict:
    status: SizingStatus
    messages: tuple[str, ...] = ()


@dataclass(frozen=True)
class AlphaField:
    """Concentration exponent per occupied box."""

    alphas: np.ndarray
    box_count: int


@dataclass(frozen=True)
class SpectrumParams:
    S: int
    B: int
    A: int
    epsilon_alpha: float
    sizing: SizingVerdict = field(
        default_factory=lambda: SizingVerdict(SizingStatus.OK))

    def __post_init__(self):
        counts = (self.S, self.B, self.A)  # 0 stands for unknown
        if not all(isinstance(v, (int, np.integer)) and v >= 0
                   for v in counts):
            raise FormatError("S, B and A must be integers >= 0, "
                              f"got {counts}")
        eps_a = self.epsilon_alpha
        if not (math.isfinite(eps_a) and eps_a >= 0):
            raise FormatError("epsilon_alpha must be finite and >= 0, "
                              f"got {eps_a}")


@dataclass(frozen=True)
class Spectrum:
    """Finite (alpha, f) point list, alphas strictly increasing."""

    alphas: np.ndarray
    fs: np.ndarray
    params: SpectrumParams

    def __post_init__(self):
        a, f = self.alphas, self.fs
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(f))
                and np.all(np.diff(a) > 0)):
            raise FormatError("spectrum points must be finite, with "
                              "strictly increasing alphas")

    def __len__(self) -> int:
        return int(self.alphas.size)

    def points(self):
        return list(zip(self.alphas.tolist(), self.fs.tolist()))


def alpha_field(measure: NaturalMeasure) -> AlphaField:
    """Compute alpha = ln(mu)/ln(eps_l) for every occupied box."""
    log_eps = math.log(1.0 / measure.box_count)  # -log(B) may differ by 1 ulp
    mu = measure.mu
    return AlphaField(alphas=np.log(mu[mu > 0]) / log_eps,
                      box_count=measure.box_count)


def histogram_spectrum(fld: AlphaField, A: int) -> Spectrum:
    """Bin the alpha field into A equal-width bins and emit (alpha, f) points.

    Bins span [min(alpha), max(alpha)], last bin closed; a bin holding N
    boxes contributes the point (bin midpoint, ln N / ln B). Empty bins are
    omitted. If all alphas coincide the spectrum collapses to one point.
    """
    if A < 1:
        raise SpecError(f"bin count must be >= 1, got {A}")
    if fld.alphas.size == 0:
        raise ValueError("alpha field is empty")
    a_lo = float(fld.alphas.min())
    a_hi = float(fld.alphas.max())
    log_b = math.log(fld.box_count)
    if a_hi == a_lo:
        eps_a = 0.0
        mids = np.array([a_lo])
        fs = np.array([math.log(fld.alphas.size) / log_b])
    else:
        eps_a = (a_hi - a_lo) / A
        bins = ((fld.alphas - a_lo) / eps_a).astype(np.int64)
        np.clip(bins, 0, A - 1, out=bins)  # closed last bin
        counts = np.bincount(bins, minlength=A)
        occupied = np.flatnonzero(counts)
        mids = a_lo + (occupied + 0.5) * eps_a
        fs = np.log(counts[occupied]) / log_b
    params = SpectrumParams(S=0, B=fld.box_count, A=A, epsilon_alpha=eps_a)
    return Spectrum(mids, fs, params)


def validate_sizing(S: int, B: int, A: int) -> SizingVerdict:
    """Check the scale-separation inequalities S >= B^2 and B >= A^2.

    B up to twice sqrt(S) is tolerated as a Warning: pushing the box count
    past sqrt(S) trades smoothness for resolution but stays usable.
    """
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
        return SizingVerdict(SizingStatus.VIOLATION, tuple(msgs))
    if msgs:
        return SizingVerdict(SizingStatus.WARNING, tuple(msgs))
    return SizingVerdict(SizingStatus.OK)


def auto_size(S: int) -> tuple[int, int]:
    """Pick B = floor(sqrt(S)) and A slightly below sqrt(B), floored at 3."""
    if S < 16:
        raise TooFewSamples(f"auto-sizing needs S >= 16, got {S}")
    B = math.isqrt(S)
    A = max(3, math.isqrt(B) - 1)
    return B, A


def estimate(dust: CantorDust, B: int, A: int, force: bool = False) -> Spectrum:
    """Full pipeline: cover, alpha field, histogram. Refuses sizing Violations
    unless force is set; the verdict travels in the output params."""
    verdict = validate_sizing(dust.sample_size, B, A)
    if verdict.status is SizingStatus.VIOLATION and not force:
        raise SizingViolation("; ".join(verdict.messages))
    spec = histogram_spectrum(alpha_field(cover(dust, B)), A)
    return replace(spec, params=replace(spec.params, S=dust.sample_size,
                                        sizing=verdict))


@dataclass(frozen=True)
class SweepEntry:
    B: int
    spectrum: Spectrum | None
    error: MfkError | None = None  # the refusal, when spectrum is None


def sweep_boxes(dust: CantorDust, B_list, A: int,
                force: bool = False) -> list[SweepEntry]:
    """Estimate one spectrum per B. A refusal of one B (its sizing or its
    box count) is recorded in its entry and the sweep goes on; any other
    error, such as a bad bin count, applies to every B and is raised."""
    out = []
    for B in B_list:
        try:
            out.append(SweepEntry(B, estimate(dust, B, A, force=force)))
        except (SizingViolation, BadBoxCount) as exc:
            out.append(SweepEntry(B, None, exc))
    return out


# --- spectrum CSV ---------------------------------------------------------

def format_spectrum_csv(spec: Spectrum) -> str:
    p = spec.params
    pairs = [("S", p.S), ("B", p.B), ("A", p.A),
             ("epsilon_alpha", repr(p.epsilon_alpha)),
             ("sizing", p.sizing.status.value)]
    pairs += [("sizing_note", msg) for msg in p.sizing.messages]
    rows = map("{!r},{!r}".format, spec.alphas.tolist(), spec.fs.tolist())
    return "".join(format_rows(pairs, rows, header="alpha,f"))


def write_spectrum_csv(spec: Spectrum, path) -> None:
    atomic_write(path, [format_spectrum_csv(spec)])


def _alpha_f_row(line):
    alpha, f = line.split(",")  # ValueError unless exactly two fields
    return float(alpha), float(f)


def read_spectrum_csv(path) -> Spectrum:
    """Read a spectrum CSV; rows may come in any order."""
    pairs, rows = read_rows(path, parse=_alpha_f_row, header="alpha,f")
    meta = dict(pairs)
    notes = tuple(v for k, v in pairs if k == "sizing_note")
    if not rows:
        raise FormatError(f"{path}: not a spectrum CSV")
    alphas, fs = np.array(rows).T
    order = np.argsort(alphas)
    try:
        params = SpectrumParams(
            S=int(meta.get("S", 0)), B=int(meta.get("B", 0)),
            A=int(meta.get("A", 0)),
            epsilon_alpha=float(meta.get("epsilon_alpha", 0.0)),
            sizing=SizingVerdict(SizingStatus(meta.get("sizing", "Ok")),
                                 notes))
        return Spectrum(alphas[order], fs[order], params)
    except (ValueError, FormatError) as exc:
        raise FormatError(f"{path}: {exc}") from None
