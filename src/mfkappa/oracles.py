"""Synthetic dust generators with theoretically known spectra.

Self-similar two-branch cascades have known multifractal spectra (Halsey
et al., Phys. Rev. A 33, 1141, 1986; see oracle_spectrum), so they serve as
ground-truth oracles for the histogram estimator. The Farey dust (all
reduced fractions with bounded denominator) is meant as the qualitative
decreasing-spectrum fixture, but that is unverified: it is an
equidistributed counting measure, and at auto-size it gives a cap, with box
counts of 91-124 at Q=200, B=110. Uniform dusts give the trivial (1,1) case.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import SpecError
from .measure import CantorDust, _check_count, _check_integer

# cascade interval lengths must stay above double-precision underflow
_MAX_LOG_SHRINK = 690.0
# cascade levels tabulated by _cascade_points: 2^16 paths, a 1 MB table
_TABLE_LEVELS = 16
# points a cascade block draws and codes at once: its buffers stay in cache
_BLOCK = 1 << 15


@dataclass(frozen=True)
class SelfSimilarSpec:
    """Two-branch multiplicative cascade: weights (p1,p2), ratios (r1,r2)."""

    p: tuple[float, float]
    r: tuple[float, float]
    depth: int
    S: int
    seed: int = 0

    def __post_init__(self):
        p1, p2 = self.p
        r1, r2 = self.r
        # stated as what must hold, so NaN fails every check
        if not abs(p1 + p2 - 1.0) <= 1e-12:
            raise SpecError(f"weights must sum to 1, got {p1 + p2!r}")
        if not (p1 > 0 and p2 > 0):
            raise SpecError("weights must be strictly positive")
        if not (r1 > 0 and r2 > 0 and r1 + r2 <= 1.0 + 1e-12):
            raise SpecError("ratios must be positive with r1 + r2 <= 1")
        _check_integer(self.depth, "depth")
        if not self.depth >= 1:
            raise SpecError("depth must be >= 1")
        # compared as int to float, so a depth past float range is refused
        if self.depth > _MAX_LOG_SHRINK / math.log(1.0 / min(r1, r2)):
            raise SpecError(f"depth {self.depth} underflows interval lengths")
        _check_count(self.S, 1, "sample size")
        _check_integer(self.seed, "seed")
        if not self.seed >= 0:
            raise SpecError(f"seed must be >= 0, got {self.seed}")

    @classmethod
    def from_dict(cls, d: dict) -> "SelfSimilarSpec":
        """The spec a JSON object states: the constructor refuses a key that
        is not a field, and a missing field."""
        d = {**d, **{key: tuple(d[key]) for key in ("p", "r") if key in d}}
        for key in [key for key in ("depth", "S", "seed") if key in d]:
            v = d[key]
            # 1e6 is a count; 12.7 is not, nor is true, though int(True) == 1
            if isinstance(v, bool) or int(v) != v:
                raise SpecError(f"{key} must be an integer, got {v!r}")
            d[key] = int(v)
        return cls(**d)


@dataclass(frozen=True, eq=False)
class OracleSpectrum:
    """Theoretical (alpha(q), f(q)) curve over a q grid."""

    q_grid: np.ndarray
    alphas: np.ndarray
    fs: np.ndarray


def _path_table(spec: SelfSimilarSpec) -> tuple[np.ndarray, np.ndarray]:
    """lo and length of all 2^k paths through the first k =
    min(depth, _TABLE_LEVELS) levels, level 0 the high bit of a path's code
    and child 2 the set bit; each applies the walk's float operations in the
    walk's order."""
    r1, r2 = spec.r
    lo, length = np.zeros(1), np.ones(1)
    for _ in range(min(spec.depth, _TABLE_LEVELS)):
        # path c's children sit at 2c (child 1) and 2c + 1
        lo = np.stack([lo, lo + length * (1.0 - r2)], axis=1).ravel()
        length = np.stack([length * r1, length * r2], axis=1).ravel()
    return lo, length


def _cascade_range(spec: SelfSimilarSpec, n: int, bits: np.random.PCG64,
                   lo: np.ndarray | None, length: np.ndarray | None,
                   a: int, b: int,
                   out: np.ndarray | None) -> np.ndarray | None:
    """Points [a, b) of _cascade_points's n, _BLOCK points at a time.

    Level j's draw for point i is element j*n + i of the stream bits starts
    at, so one generator per level, a copy of bits moved to j*n + a, draws
    that level for the whole range. Each block codes its points' paths
    through the table's k levels. With out None (depth k) it returns the
    range's count per path code, and needs no table; otherwise it walks the
    levels below k from its paths' lo and length and writes its points into
    out, in draw order.
    """
    p1 = spec.p[0]
    r1, r2 = spec.r
    k = min(spec.depth, _TABLE_LEVELS)
    draws = []
    for j in range(spec.depth):
        level = bits.jumped(0)  # a copy: bits itself does not move
        level.advance(j * n + a)
        draws.append(np.random.Generator(level).random)
    u = np.empty(_BLOCK)
    code = np.empty(_BLOCK, dtype=np.uint32)
    counts = np.zeros(1 << k, dtype=np.int64) if out is None else None
    for at in range(a, b, _BLOCK):
        m = min(_BLOCK, b - at)
        c, v = code[:m], u[:m]
        c.fill(0)
        for draw in draws[:k]:
            c <<= 1
            c |= draw(out=v) >= p1
        if out is None:
            counts += np.bincount(c, minlength=1 << k)
            continue
        x, dx = lo[c], length[c]
        for draw in draws[k:]:
            right = draw(out=v) >= p1
            np.multiply(dx, 1.0 - r2, out=v)
            np.add(x, v, out=x, where=right)
            dx *= np.where(right, r2, r1)
        np.add(x, 0.5 * dx, out=out[at:at + m])
    return counts


def _cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the platform
    has one), which may be fewer than the machine has."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cascade_points(spec: SelfSimilarSpec, n: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Sample n points i.i.d. from the depth-d cascade measure: walk d levels
    choosing child 1 with probability p1, return final-interval midpoints.
    Child 1 is left-aligned, child 2 right-aligned (middle gap). The points
    are those of the walk that draws each level as one rng.random(n) call.
    rng is read through copies of its bit generator and is not moved.

    A point depends only on its path, so the first k = min(d, _TABLE_LEVELS)
    levels are tabulated (_path_table). Level j's draw for point i is
    element j*n + i of rng's stream, so [0, n) splits into one contiguous
    range per CPU, each on its own thread (numpy draws and compares without
    the GIL), and each range into blocks whose buffers stay in cache (see
    _cascade_range). A block extends an integer path code per level,
    code = (code << 1) | (u >= p1). No split changes a point.

    With d <= _TABLE_LEVELS a point is its path's midpoint, so the blocks
    only count points per path, and the output is each midpoint repeated by
    its count, in code order. Code order is left to right, so that is the
    walk's points sorted: every point is a midpoint > 0, so the multiset
    fixes the sorted array. (CantorDust checks the order, so a table whose
    rounding crossed two midpoints would still give the sorted dust.) The
    table is built only once the counting is done, so it and the blocks'
    buffers never coexist. With d > _TABLE_LEVELS the blocks walk on from
    their paths' lo and length and write the points in draw order. The
    n-point output is allocated before the first draw, so a sample too
    large to hold fails at once.
    """
    out = np.empty(n)
    below = out if spec.depth > _TABLE_LEVELS else None
    lo, length = _path_table(spec) if below is not None else (None, None)
    workers = max(1, min(_cpus(), n // (2 * _BLOCK)))
    cuts = [n * i // workers for i in range(workers + 1)]
    parts = [None] * workers

    def sample(i):
        return _cascade_range(spec, n, rng.bit_generator, lo, length,
                              cuts[i], cuts[i + 1], below)

    def run(i):  # on a thread: its exception is re-raised by the caller
        try:
            parts[i] = sample(i)
        except BaseException as exc:
            parts[i] = exc

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        parts[0] = sample(0)
    finally:  # no thread outlives the call, nor writes out after it
        for thread in threads:
            thread.join()
    for part in parts:
        if isinstance(part, BaseException):
            raise part
    if below is not None:
        return out
    counts = parts[0]
    for part in parts[1:]:
        counts += part
    del parts
    lo, length = _path_table(spec)
    mids = lo + 0.5 * length
    del lo, length
    used = np.flatnonzero(counts)
    at = 0
    for i in range(0, used.size, 1024):  # a few Python numbers at a time
        some = used[i:i + 1024]
        for mid, count in zip(mids[some].tolist(), counts[some].tolist()):
            out[at:at + count] = mid
            at += count
    return out


def gen_selfsimilar(spec: SelfSimilarSpec) -> CantorDust:
    """Deterministic dust of spec.S cascade samples (seeded RNG)."""
    rng = np.random.default_rng(spec.seed)
    return CantorDust(_cascade_points(spec, spec.S, rng))


def gen_superposed(spec_a: SelfSimilarSpec, spec_b: SelfSimilarSpec,
                   mix: float, disjoint: bool = False) -> CantorDust:
    """Union dust from two cascades sharing the unit segment.

    mix is the fraction of the total budget (spec_a.S + spec_b.S) drawn from
    the first cascade. With disjoint=True the first measure is squeezed into
    [0, 0.5) and the second into [0.5, 1], so each keeps its own support.
    """
    if not 0.0 < mix < 1.0:
        raise SpecError(f"mix must lie strictly in (0,1), got {mix}")
    total = spec_a.S + spec_b.S
    _check_count(total, 2, "sample size")
    n_a = round(mix * total)
    n_b = total - n_a
    pts_a = _cascade_points(spec_a, n_a, np.random.default_rng(spec_a.seed))
    pts_b = _cascade_points(spec_b, n_b, np.random.default_rng(spec_b.seed))
    if disjoint:
        pts_a = 0.5 * pts_a
        pts_b = 0.5 + 0.5 * pts_b
    return CantorDust(np.concatenate([pts_a, pts_b]))


def oracle_spectrum(spec: SelfSimilarSpec, q_grid) -> OracleSpectrum:
    """Legendre spectrum of the cascade over a q grid (Halsey et al. 1986).

    tau(q) is the root of p1^q r1^-tau + p2^q r2^-tau = 1. With
    v_i = p_i^q r_i^-tau, implicit differentiation gives
        alpha(q) = tau'(q) = (v1 ln p1 + v2 ln p2) / (v1 ln r1 + v2 ln r2),
    and f(q) = q alpha(q) - tau(q). Every q of the grid is kept.
    """
    q = np.asarray(q_grid, dtype=float)
    ln_p1, ln_p2, ln_r1, ln_r2 = map(math.log, (*spec.p, *spec.r))

    def exponents(t):  # ln v_i, finite where p_i^q or r_i^-t overflows
        return q * ln_p1 - t * ln_r1, q * ln_p2 - t * ln_r2

    # g(t) = ln(p1^q r1^-t + p2^q r2^-t) strictly increases in t. Term i is 1
    # at t_i = q ln p_i / ln r_i and at most 1/2 up to t_i + ln 2 / ln r_i,
    # so g <= 0 at the smaller of those bounds and g > 0 at max(t1, t2).
    t1, t2 = q * ln_p1 / ln_r1, q * ln_p2 / ln_r2
    lo = np.minimum(t1 + math.log(2) / ln_r1, t2 + math.log(2) / ln_r2)
    hi = np.maximum(t1, t2)
    for _ in range(200):  # to adjacent doubles, or 1e-50 wide near tau=0
        mid = 0.5 * (lo + hi)
        above = np.logaddexp(*exponents(mid)) > 0.0
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    taus = 0.5 * (lo + hi)
    e1, e2 = exponents(taus)
    norm = np.logaddexp(e1, e2)
    v1, v2 = np.exp(e1 - norm), np.exp(e2 - norm)
    alphas = (v1 * ln_p1 + v2 * ln_p2) / (v1 * ln_r1 + v2 * ln_r2)
    return OracleSpectrum(q, alphas, q * alphas - taus)


def gen_farey(Q: int) -> CantorDust:
    """All reduced fractions p/q in [0,1] with denominator q <= Q. The dust
    is allocated once, at the bound 2 + Q(Q-1)/2 (0, 1 and at most q - 1
    fractions per q), and filled one q at a time; the pages past the last
    fraction, about 39% of the bound, are never written."""
    _check_count(Q, 2, "max denominator")
    size = 2 + Q * (Q - 1) // 2
    _check_count(size, 3, f"Farey dust of Q={Q}: point bound")
    points = np.empty(size)
    points[:2] = 0.0, 1.0
    at = 2
    for den in range(2, Q + 1):
        num = np.arange(1, den)
        reduced = num[np.gcd(num, den) == 1] / den
        points[at:at + reduced.size] = reduced
        at += reduced.size
    return CantorDust(points[:at])


def gen_uniform(S: int, mode: str = "equispaced",
                seed: int = 0) -> CantorDust:
    """Uniform dust: equispaced midpoints (k+0.5)/S or S i.i.d. draws."""
    _check_count(S, 1, "sample size")
    _check_integer(seed, "seed")
    if seed < 0:
        raise SpecError(f"seed must be >= 0, got {seed}")
    if mode == "equispaced":
        return CantorDust((np.arange(S) + 0.5) / S)
    if mode == "random":
        return CantorDust(np.random.default_rng(seed).random(S))
    raise SpecError(f"unknown uniform mode {mode!r}")
