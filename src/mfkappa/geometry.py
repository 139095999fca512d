"""Spectrum geometry: features, shape diagnostics, regime classification.

The three regimes are read off the shape of the (alpha, f) curve:
a one-piece cap is the road-to-crisis shape, a constant-slope run inside a
one-piece spectrum marks the crisis (the slope q = f'(alpha) collapses to a
constant), and a spectrum broken into fragments separated by alpha-gaps is
the post-crisis bi-multifractal situation.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import MfkError, SpecError
from .measure import _check_count, _check_integer, _check_real
from .spectrum import Spectrum


@dataclass(frozen=True)
class SpectrumFeatures:
    alpha_min: float
    alpha_max: float
    alpha_M: float        # argmax of f, ties broken toward smaller alpha
    f_max: float
    delta_alpha: float    # alpha_max - alpha_min, the width of the curve
    bisectrix_gap: float  # min over points of (alpha - f); distance to y=x


@dataclass(frozen=True)
class SegmentReport:
    found: bool
    run: tuple[int, int] | None = None  # inclusive index range
    slope: float | None = None          # the collapsed q = f'(alpha)
    residual: float | None = None       # max |deviation| from the fitted line


@dataclass(frozen=True)
class IsolatedPoint:
    index: int
    alpha: float
    f: float
    on_axis: bool  # f == 0: a lone box, not an embryonic second spectrum


@dataclass(frozen=True)
class FragmentReport:
    fragments: tuple[tuple[int, int], ...]  # inclusive index ranges
    gaps: tuple[float, ...]                 # alpha widths between fragments
    isolated_points: tuple[IsolatedPoint, ...]
    gap_threshold: float


@dataclass(frozen=True)
class GeometryConfig:
    residual_tol: float = 0.02
    min_run: int | None = None        # raised to 4; default: ceil(n/2)
    gap_threshold: float | None = None  # default: see default_gap_threshold
    tol: float = 0.2                  # cap-shape noise tolerance in f units

    def __post_init__(self):
        # held as Python numbers, which RegimeReport.to_json can write
        for name in ("residual_tol", "tol"):
            value = _check_real(getattr(self, name), name)
            if not 0 <= value < math.inf:  # NaN fails this too
                raise SpecError(f"{name} must be finite and >= 0, "
                                f"got {value}")
            object.__setattr__(self, name, value)
        if self.gap_threshold is not None:
            object.__setattr__(self, "gap_threshold", _check_real(
                self.gap_threshold, "gap_threshold"))
        if self.min_run is not None:
            _check_integer(self.min_run, "min_run")
            # raised to 4 where it is used, so only its size can be refused
            _check_count(max(4, self.min_run), 4, "min_run")
            object.__setattr__(self, "min_run", int(self.min_run))


@dataclass(frozen=True)
class RegimeReport:
    regime: str  # PreCrisis | Crisis | PostCrisisBiMultifractal | Indeterminate
    features: SpectrumFeatures
    segment: SegmentReport
    fragmentation: FragmentReport
    cap_shaped: bool | None  # None: under 3 points, no cap test
    config: dict  # GeometryConfig's fields, min_run and gap_threshold resolved

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        """as_dict as strict JSON (RFC 8259), which has no Infinity: an
        infinite gap_threshold, under which no spacing splits the curve, is
        written as null."""
        d = self.as_dict()
        for part in (d["fragmentation"], d["config"]):
            if math.isinf(part["gap_threshold"]):
                part["gap_threshold"] = None
        return json.dumps(d, indent=2, allow_nan=False)


def features(spectrum: Spectrum) -> SpectrumFeatures:
    """Extract the curve summary; at equal f_max the smaller alpha wins."""
    alphas, fs = spectrum.alphas, spectrum.fs
    k = int(np.argmax(fs))  # argmax takes the first max: the smaller alpha
    return SpectrumFeatures(
        alpha_min=float(alphas[0]),
        alpha_max=float(alphas[-1]),
        alpha_M=float(alphas[k]),
        f_max=float(fs[k]),
        delta_alpha=float(alphas[-1] - alphas[0]),
        bisectrix_gap=float(np.min(alphas - fs)),
    )


def compare_sweep(features_list) -> dict:
    """Signed feature deltas across a box-count sweep (first to last entry).

    Flags approaching_bisectrix when the gap to the line y=x strictly
    decreases along the whole sweep: the left-and-up shift of the curve.
    """
    if len(features_list) < 2:
        raise MfkError("trend comparison needs >= 2 feature sets")
    first, last = features_list[0], features_list[-1]
    gaps = [f.bisectrix_gap for f in features_list]
    return {
        "delta_alpha_min": last.alpha_min - first.alpha_min,
        "delta_alpha_M": last.alpha_M - first.alpha_M,
        "delta_f_max": last.f_max - first.f_max,
        "delta_bisectrix_gap": last.bisectrix_gap - first.bisectrix_gap,
        "approaching_bisectrix": all(b < a for a, b in zip(gaps, gaps[1:])),
    }


def cap_shape_check(spectrum: Spectrum,
                    tol: float = GeometryConfig.tol) -> bool:
    """Single-peak test: no interior point sits more than tol below both
    neighbours. A peak at either end passes."""
    fs = spectrum.fs
    n = fs.size
    if n < 3:
        raise MfkError(f"cap test needs >= 3 points, got {n}")
    # x - tol is monotone under rounding, so min(a, b) - tol is exactly
    # min(a - tol, b - tol): below both neighbours' bounds at once
    valleys = fs[1:-1] < np.minimum(fs[:-2], fs[2:]) - tol
    return not valleys.any()  # a bool, not numpy's, so JSON can hold it


# Cells (window x padded column) one screen call holds in each of its float
# arrays: 2**16 cells are 512 KiB, and every window of a spectrum of up to
# 79 points at the default min_run fits in one call.
_SCREEN_CELLS = 1 << 16


def _line_fit_residual(alphas, fs):
    """Least-squares line through the points; returns (slope, max |resid|).

    Alphas a few ulps apart make polyfit's scaled alpha column parallel to
    its constant one: its rank falls below 2, where polyfit would warn
    RankWarning. Such a window is refitted on alphas - alphas[0], which is
    exact for alphas within a factor 2 of each other (Sterbenz) and spans
    the same line with a well-conditioned column.
    """
    coef, _, rank, _, _ = np.polyfit(alphas, fs, 1, full=True)
    if rank < 2:
        alphas = alphas - alphas[0]
        coef = np.polyfit(alphas, fs, 1, full=True)[0]
    resid = fs - np.polyval(coef, alphas)
    return float(coef[0]), float(np.max(np.abs(resid)))


def _window_groups(n, min_run):
    """Every window of n points with at least min_run of them, as (length,
    start) arrays ordered longest first and then leftmost, cut into groups
    whose windows, padded to the group's first length, hold at most
    _SCREEN_CELLS cells (a lone window that holds more is a group)."""
    lengths = np.arange(n, min_run - 1, -1)
    counts = n - lengths + 1
    length = np.repeat(lengths, counts)
    start = np.arange(length.size) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
    w = 0
    while w < length.size:
        stop = w + max(1, _SCREEN_CELLS // int(length[w]))
        yield length[w:stop], start[w:stop]
        w = stop


def _window_screen(alphas, fs, length, start):
    """Max |residual| from the least-squares line of each window (length[k]
    consecutive points from start[k]), in one array pass over them all, and
    a margin by which each may differ from _line_fit_residual's.

    Each window is a row padded with zeros to the longest length. The
    screen centres it (da = alpha - mean, df = f - mean, zero in the
    padding) and fits df = s*da; polyfit solves the uncentred problem by
    SVD. Both are rounding-level perturbations of the same exact residual
    r. Padded zeros add exactly, so in any summation order each sum over a
    window's L terms carries a relative error below L*eps on terms bounded
    by max|f| + |s|*max|alpha|, and a norm over L points costs at most
    another factor L. Uncentred, alpha's offset is conditioned by
    K = max|alpha| / (alpha_last - alpha_first), which multiplies the
    residual's own size. So the gap is below C*L**2*eps*scale, with
    scale = max|f| + |s|*max|alpha| + K*r. On fuzzed windows (L from 4 to
    60, alpha offsets to 1e3, spacings from 1e-6 to 3, slopes to 3) the
    measured gap stayed below 0.38*L**2*eps*scale, so C = 16 leaves a
    40-fold headroom. For O(1) data and L <= 60 the margin is below 1e-10,
    far under any useful residual_tol, so the screen still rejects almost
    every window that is not a hit.
    """
    width = int(length.max())
    column = np.arange(width)
    inside = column < length[:, None]
    rows = start[:, None] + column
    pad = np.zeros(width)
    a, f = (np.concatenate([x, pad])[rows] * inside for x in (alphas, fs))
    first, last = alphas[start], alphas[start + length - 1]
    a_max = np.maximum(np.abs(first), np.abs(last))  # alphas increase
    f_max = np.max(np.abs(f), axis=1)
    for x in (a, f):  # centred in place, still zero past each window
        x -= (np.sum(x, axis=1) / length)[:, None] * inside
    slope = np.einsum("ij,ij->i", a, f) / np.einsum("ij,ij->i", a, a)
    a *= slope[:, None]
    f -= a
    resid = np.max(np.abs(f, out=f), axis=1)
    scale = f_max + np.abs(slope) * a_max + a_max / (last - first) * resid
    return resid, 16 * length ** 2 * np.finfo(float).eps * scale


_QUARTERS = np.array([[1], [2], [3]])


def _chord_bound(alphas, fs, length, start, residual_tol):
    """A lower bound on the max |residual| of any line through each window
    (length[k] consecutive points from start[k]), from five of its points,
    and an allowance for rounding, valid for a window whose polyfit
    residual is at most residual_tol (a scalar, or one per window).

    For points i < m < k and any line, the residuals r satisfy
    r_m - (lam*r_i + (1 - lam)*r_k) = f_m - chord_ik(alpha_m), with
    lam = (alpha_k - alpha_m) / (alpha_k - alpha_i) in (0, 1), as the line's
    part cancels; so one of the three residuals is at least
    d = |f_m - chord_ik(alpha_m)| / 2. The bound is the largest d over the
    window's two ends s, e and its quartile points m = s + (L - 1)*q // 4,
    q = 1, 2, 3, with the chord f_s + (f_e - f_s)*t, t = (alpha_m - alpha_s)
    / (alpha_e - alpha_s). Rounding t (three ops, t in [0, 1]) and the
    chord and difference (four more, on terms below 2F, F = max|f|) moves
    the computed d by under 3.3*eps*F. Polyfit's residual rho is computed
    as f - polyval(coef, alpha): it differs from the exact residual of its
    line by under (eps/2)*(rho + |s|*|alpha| + |f| + rho), and the line's
    values sit within rho of f at the window's ends, so its slope |s| is
    below 2*(F + rho) / (alpha_e - alpha_s) and |s|*|alpha| below
    2*(F + rho)*K, with K = max|alpha| / (alpha_e - alpha_s) as in
    _window_screen. (A window that polyfit refits on alpha - alpha_s shifts
    alpha exactly, which leaves d as it is and K no larger.) So to first
    order the computed bound exceeds rho by under
    (1 + 3.3)*eps*(F + rho)*(1 + K), and the allowance takes
    8*eps*(F + residual_tol)*(1 + K), which grows with rho: a window with
    bound > residual_tol + allowance has rho > residual_tol. Where K is so
    large that the first order fails (2*eps*K near 1), the allowance is
    past 4*F, above any bound. On fuzzed windows (alpha offsets to 2**40,
    spacings from 1e-12 to 3, lines exact to rounding, noisy lines, caps
    and noise) the bound passed rho by under 0.16*eps*(F + rho)*(1 + K),
    below 0.02 of the allowance at rho: a 50-fold headroom.
    """
    end = start + length - 1
    a_s, f_s = alphas[start], fs[start]
    span, rise = alphas[end] - a_s, fs[end] - f_s
    m = start + (length - 1) * _QUARTERS // 4  # one row per quartile
    chord = f_s + rise * ((alphas[m] - a_s) / span)
    bound = np.max(np.abs(fs[m] - chord), axis=0)
    k = np.maximum(np.abs(a_s), np.abs(alphas[end])) / span  # alphas increase
    scale = (np.max(np.abs(fs)) + residual_tol) * (1 + k)
    return bound / 2, 8 * np.finfo(float).eps * scale


def detect_segment(spectrum: Spectrum,
                   residual_tol: float = GeometryConfig.residual_tol,
                   min_run: int = 4) -> SegmentReport:
    """Longest run of consecutive points collinear within residual_tol.

    Max-residual against the least-squares line encodes "f'(alpha) constant"
    robustly on the short point lists this estimator produces. Every window
    of at least min_run points is first bounded by _chord_bound, and a
    window whose bound passes residual_tol plus its allowance is dropped:
    no line, polyfit's included, fits it. One _window_screen call screens
    the windows left (a spectrum too long for _SCREEN_CELLS takes a few
    groups, longest windows first, and a group with none left takes none).
    Only a window whose screened residual is within residual_tol plus its
    margin (or is not finite) is fitted by polyfit, longest first and then
    leftmost, and only polyfit's slope and residual decide a hit and its
    report; the search stops after the first length with a hit. The
    allowance and the margin bound the rounding of the bound and the
    screen, so no window polyfit would accept is skipped and the report is
    the one fitting every window gives.
    """
    alphas, fs = spectrum.alphas, spectrum.fs
    hits, longest = [], 0
    for length, start in _window_groups(fs.size, max(4, min_run)):
        if length[0] < longest:
            break
        bound, allowance = _chord_bound(alphas, fs, length, start,
                                        residual_tol)
        keep = ~(bound > residual_tol + allowance)
        if not keep.any():
            continue
        length, start = length[keep], start[keep]
        screened, margin = _window_screen(alphas, fs, length, start)
        keep = ~(screened > residual_tol + margin)
        for size, i in zip(length[keep].tolist(), start[keep].tolist()):
            if size < longest:
                break
            j = i + size - 1
            slope, resid = _line_fit_residual(alphas[i:j + 1], fs[i:j + 1])
            if resid <= residual_tol:
                hits.append((resid, i, j, slope))
                longest = size
    if hits:  # the longest length; then smallest residual, then leftmost
        resid, i, j, slope = min(hits)
        return SegmentReport(found=True, run=(i, j), slope=slope,
                             residual=resid)
    return SegmentReport(found=False)


def detect_fragments(spectrum: Spectrum,
                     gap_threshold: float | None = None) -> FragmentReport:
    """Split the alpha-sorted points wherever consecutive spacing exceeds
    gap_threshold (None: default_gap_threshold); size-1 fragments become
    isolated points, flagged on-axis when their f is zero."""
    if gap_threshold is None:
        gap_threshold = default_gap_threshold(spectrum)
    if not gap_threshold > 0:
        raise SpecError(f"gap threshold must be positive, got {gap_threshold}")
    alphas, fs = spectrum.alphas, spectrum.fs
    spacings = np.diff(alphas)
    cuts = np.flatnonzero(spacings > gap_threshold)  # last point before a gap
    frags = tuple(zip([0, *(cuts + 1).tolist()],
                      [*cuts.tolist(), alphas.size - 1]))
    isolated = tuple(
        IsolatedPoint(index=i, alpha=float(alphas[i]), f=float(fs[i]),
                      on_axis=bool(fs[i] <= 1e-12))
        for i, j in frags if i == j)
    return FragmentReport(fragments=frags, gaps=tuple(spacings[cuts].tolist()),
                          isolated_points=isolated,
                          gap_threshold=gap_threshold)


def default_gap_threshold(spectrum: Spectrum) -> float:
    """Widest spacing still counted as connected, by default.

    Anything under 1.5 bin widths is quantization, not a gap, so the floor
    is 1.5 * epsilon_alpha when the bin width is known; the absolute floor
    of 0.1 keeps sub-0.1 jitter in sparse noise tails from splitting a
    spectrum (alpha lives on an O(1) scale).
    """
    alphas = spectrum.alphas
    if alphas.size < 2:
        return math.inf
    eps_a = spectrum.epsilon_alpha
    if eps_a > 0:
        return max(1.5 * eps_a, 0.1)
    # alphas strictly increase, so the median spacing is above 0
    return max(3.0 * float(np.median(np.diff(alphas))), 0.1)


def classify(spectrum: Spectrum,
             config: GeometryConfig = GeometryConfig()) -> RegimeReport:
    """Decision rule: >= 2 fragments is post-crisis bi-multifractality; one
    fragment with a collinear run is crisis; one cap-shaped fragment without
    a run is pre-crisis; anything else is indeterminate."""
    n = len(spectrum)
    min_run = max(4, config.min_run if config.min_run is not None
                  else math.ceil(n / 2))
    frag = detect_fragments(spectrum, config.gap_threshold)
    seg = detect_segment(spectrum, config.residual_tol, min_run)
    cap_shaped = cap_shape_check(spectrum, config.tol) if n >= 3 else None

    if len(frag.fragments) >= 2:
        regime = "PostCrisisBiMultifractal"
    elif seg.found:
        regime = "Crisis"
    elif cap_shaped:
        regime = "PreCrisis"
    else:
        regime = "Indeterminate"

    # config's fields as asdict gives them: all are numbers or None, and
    # these two are already what GeometryConfig would make of them
    resolved = dict(vars(config), min_run=min_run,
                    gap_threshold=frag.gap_threshold)
    return RegimeReport(regime=regime, features=features(spectrum),
                        segment=seg, fragmentation=frag,
                        cap_shaped=cap_shaped, config=resolved)
