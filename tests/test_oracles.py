import math
import time
import tracemalloc
from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from mfkappa import oracles
from mfkappa.errors import FormatError, SpecError
from mfkappa.measure import _MAX_COUNT, CantorDust, cover, write_dust
from mfkappa.oracles import (_BLOCK, _TABLE_LEVELS, SelfSimilarSpec,
                             _cascade_points, _cascade_range, _path_table,
                             gen_farey, gen_selfsimilar, gen_superposed,
                             gen_uniform, oracle_spectrum)

MIDDLE_THIRD = dict(p=(0.5, 0.5), r=(1 / 3, 1 / 3))


class TestSelfSimilarGen:
    def test_one_level_middle_third(self):
        spec = SelfSimilarSpec(**MIDDLE_THIRD, depth=1, S=200, seed=0)
        pts = set(np.round(gen_selfsimilar(spec).points, 12))
        assert pts <= {round(1 / 6, 12), round(5 / 6, 12)}
        assert len(pts) == 2

    def test_degenerate_weight_rejected(self):
        with pytest.raises(SpecError):
            SelfSimilarSpec(p=(1.0, 0.0), r=(0.4, 0.4), depth=3, S=10)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(SpecError):
            SelfSimilarSpec(p=(0.3, 0.6), r=(0.4, 0.4), depth=3, S=10)

    def test_overlapping_ratios_rejected(self):
        with pytest.raises(SpecError):
            SelfSimilarSpec(p=(0.5, 0.5), r=(0.7, 0.7), depth=3, S=10)

    @pytest.mark.parametrize("p, r", [
        ((math.nan, math.nan), (0.3, 0.3)),
        ((0.5, 0.5), (math.nan, 0.3)),
        ((0.5, 0.5), (0.3, math.nan)),
    ], ids=["p-nan", "r1-nan", "r2-nan"])
    def test_nan_rejected(self, p, r):
        with pytest.raises(SpecError):
            SelfSimilarSpec(p=p, r=r, depth=3, S=10)

    def test_superposed_union_past_array_length_rejected(self):
        half = SelfSimilarSpec(**MIDDLE_THIRD, depth=3,
                               S=_MAX_COUNT // 2 + 1)
        with pytest.raises(SpecError):  # each fits an array, the union not
            gen_superposed(half, half, 0.5)

    def test_from_dict_takes_whole_float_counts(self):
        spec = SelfSimilarSpec.from_dict(
            {**MIDDLE_THIRD, "depth": 4.0, "S": 1e6, "seed": 2.0})
        assert asdict(spec) == {"p": (0.5, 0.5), "r": (1 / 3, 1 / 3),
                                "depth": 4, "S": 1_000_000, "seed": 2}
        assert all(type(v) is int for v in (spec.depth, spec.S, spec.seed))

    def test_from_dict_keys_are_the_fields(self):
        d = {**MIDDLE_THIRD, "depth": 4, "S": 10}
        assert SelfSimilarSpec.from_dict(d).seed == 0  # the field default
        with pytest.raises(TypeError, match="unexpected keyword "
                           "argument 'sed'"):
            SelfSimilarSpec.from_dict({**d, "sed": 5})
        del d["depth"]
        with pytest.raises(TypeError, match="missing 1 required positional "
                           "argument: 'depth'"):
            SelfSimilarSpec.from_dict(d)

    def test_determinism(self):
        spec = SelfSimilarSpec(p=(0.3, 0.7), r=(0.5, 0.5), depth=13,
                               S=1000, seed=7)
        d1 = gen_selfsimilar(spec)
        d2 = gen_selfsimilar(spec)
        assert np.array_equal(d1.points, d2.points)

    @pytest.mark.parametrize("field,value", [
        ("depth", 4.5), ("depth", 4.0), ("depth", True),
        ("seed", 0.5), ("seed", 1.0), ("seed", True)],
        ids=["depth-float", "depth-whole-float", "depth-bool",
             "seed-float", "seed-whole-float", "seed-bool"])
    def test_a_depth_or_seed_that_is_not_an_integer_is_refused(self, field,
                                                               value):
        fields = {**MIDDLE_THIRD, "depth": 4, "S": 10, field: value}
        with pytest.raises(SpecError, match=f"^{field} must be an integer, "
                           f"got {value!r}$") as exc:
            SelfSimilarSpec(**fields)
        assert exc.value.exit_code == 2

    def test_depth_guard(self):
        with pytest.raises(SpecError, match="depth 200 underflows interval "
                           "lengths") as exc:
            SelfSimilarSpec(p=(0.5, 0.5), r=(0.01, 0.01), depth=200, S=10)
        assert exc.value.exit_code == 2

    def test_depth_guard_runs_before_any_table(self):
        tracemalloc.start()
        try:
            with pytest.raises(SpecError, match="depth 200 underflows "
                               "interval lengths") as exc:
                gen_selfsimilar(SelfSimilarSpec(p=(0.5, 0.5),
                                                r=(0.01, 0.01), depth=200,
                                                S=10))
            assert exc.value.exit_code == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # a full path table alone takes 1 MB

    def test_points_confined_to_depth_one_cells(self):
        spec = SelfSimilarSpec(p=(0.4, 0.6), r=(0.25, 0.25), depth=6,
                               S=500, seed=3)
        pts = gen_selfsimilar(spec).points
        assert np.all((pts < 0.25) | (pts > 0.75))


def _walk_points(spec, n, rng):
    """The cascade sampler before its path table: every point walks all
    spec.depth levels over n-element arrays. The old==new reference."""
    p1 = spec.p[0]
    r1, r2 = spec.r
    lo = np.zeros(n)
    length = np.ones(n)
    for _ in range(spec.depth):
        left = rng.random(n) < p1
        lo = np.where(left, lo, lo + length * (1.0 - r2))
        length = np.where(left, length * r1, length * r2)
    return lo + 0.5 * length


WALK_SPECS = {  # (p1, (r1, r2), depth)
    "binomial": (0.3, (0.5, 0.5), 13),
    "unequal-ratios": (0.3, (0.3, 0.5), 13),
    "middle-third": (0.5, (1 / 3, 1 / 3), 13),
    "shallow": (0.4, (0.25, 0.25), 5),
    "table-depth": (0.3, (0.3, 0.5), _TABLE_LEVELS),
    "below-table": (0.3, (0.3, 0.5), _TABLE_LEVELS + 4),
}


def _walk_spec(name, S, seed=0):
    p1, r, depth = WALK_SPECS[name]
    return SelfSimilarSpec(p=(p1, 1 - p1), r=r, depth=depth, S=S, seed=seed)


def _bits(points):
    return np.asarray(points).view(np.int64)


def _sampled(spec, n, rng):
    """_cascade_points's sample as points: in draw order below the table,
    where it gives no counts, and np.repeat(values, counts) within it."""
    values, counts = _cascade_points(spec, n, rng)
    assert (counts is None) == (spec.depth > _TABLE_LEVELS)
    return values if counts is None else np.repeat(values, counts)


class TestCascadeSampler:
    """The blocked, threaded sampler gives the dust of the level-by-level
    walk bit for bit, in draw order below the table, for any split of its
    points, at no more peak memory."""

    @pytest.mark.parametrize("S", [1, 7, 100_000])
    @pytest.mark.parametrize("name", WALK_SPECS)
    def test_equals_walk_in_draw_order(self, name, S):
        # the sampler draws the walk's stream, point i of level j at element
        # j*S + i. Below the table it writes the points in draw order; within
        # it, it returns them grouped by path, so there what it shares with
        # the walk is the dust every caller receives: the walk's points,
        # sorted
        spec = _walk_spec(name, S, seed=S % 5)
        ref = _walk_points(spec, S, np.random.default_rng(spec.seed))
        if spec.depth > _TABLE_LEVELS or S == 1:
            new = _sampled(spec, S, np.random.default_rng(spec.seed))
            assert np.array_equal(_bits(new), _bits(ref))
        else:
            dust = gen_selfsimilar(spec)
            assert np.array_equal(_bits(dust.points), _bits(np.sort(ref)))

    @pytest.mark.parametrize("name", ["unequal-ratios", "below-table"])
    def test_a_split_of_the_points_changes_no_count_or_point(self, name):
        spec = _walk_spec(name, 3 * _BLOCK + 11, seed=4)
        n, cut = spec.S, _BLOCK + 1000  # inside the second block
        bits = np.random.PCG64(spec.seed)
        lo, length = _path_table(spec)
        outs = [np.empty(n) if spec.depth > _TABLE_LEVELS else None
                for _ in range(2)]
        whole = _cascade_range(spec, n, bits, lo, length, 0, n, outs[0])
        split = [_cascade_range(spec, n, bits, lo, length, a, b, outs[1])
                 for a, b in ((0, cut), (cut, n))]
        if outs[0] is None:
            assert np.array_equal(whole, split[0] + split[1])
            assert whole.sum() == n
        else:
            assert np.array_equal(_bits(outs[0]), _bits(outs[1]))
            ref = _walk_points(spec, n, np.random.default_rng(spec.seed))
            assert np.array_equal(_bits(outs[0]), _bits(ref))  # draw order

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("name", ["unequal-ratios", "below-table"])
    def test_threads_change_no_point(self, monkeypatch, name, cpus):
        # 6 blocks and 5 points: three threads, whose ranges cut blocks
        monkeypatch.setattr(oracles, "_cpus", lambda: cpus)
        spec = _walk_spec(name, 6 * _BLOCK + 5, seed=3)
        ref = _walk_points(spec, spec.S, np.random.default_rng(3))
        new = _sampled(spec, spec.S, np.random.default_rng(3))
        if spec.depth <= _TABLE_LEVELS:  # counted: the sorted walk
            ref = np.sort(ref)
        assert np.array_equal(_bits(new), _bits(ref))

    def test_a_thread_that_fails_fails_the_sample(self, monkeypatch):
        def fail_past_zero(spec, n, bits, lo, length, a, b, out):
            if a > 0:
                raise MemoryError("range past 0")

        monkeypatch.setattr(oracles, "_cpus", lambda: 2)
        monkeypatch.setattr(oracles, "_cascade_range", fail_past_zero)
        spec = _walk_spec("binomial", 4 * _BLOCK)
        with pytest.raises(MemoryError, match="range past 0"):
            _cascade_points(spec, spec.S, np.random.default_rng(0))

    def test_a_failing_first_range_waits_for_the_others(self, monkeypatch):
        done = []

        def fail_at_zero(spec, n, bits, lo, length, a, b, out):
            if a == 0:
                raise MemoryError("range 0")
            time.sleep(0.2)
            done.append(a)

        monkeypatch.setattr(oracles, "_cpus", lambda: 3)
        monkeypatch.setattr(oracles, "_cascade_range", fail_at_zero)
        spec = _walk_spec("binomial", 6 * _BLOCK)
        with pytest.raises(MemoryError, match="range 0"):
            _cascade_points(spec, spec.S, np.random.default_rng(0))
        assert sorted(done) == [2 * _BLOCK, 4 * _BLOCK]

    @pytest.mark.parametrize("S", [1, 7, 100_000])
    def test_superposed_disjoint_equals_walk(self, S):
        a = _walk_spec("middle-third", S, seed=1)
        b = _walk_spec("below-table", S + 3, seed=2)
        n_a = round(0.3 * (a.S + b.S))
        ref = CantorDust(np.concatenate([
            0.5 * _walk_points(a, n_a, np.random.default_rng(1)),
            0.5 + 0.5 * _walk_points(b, a.S + b.S - n_a,
                                     np.random.default_rng(2))]))
        dust = gen_superposed(a, b, 0.3, disjoint=True)
        assert np.array_equal(_bits(dust.points), _bits(ref.points))

    @pytest.mark.parametrize("name", ["unequal-ratios", "table-depth",
                                      "below-table"])
    def test_peak_memory_within_walk(self, name):
        spec = _walk_spec(name, 100_000)
        peaks = []
        for sample in (_cascade_points, _walk_points):
            tracemalloc.start()
            try:
                sample(spec, spec.S, np.random.default_rng(0))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]


# box counts the held dusts are covered at, from 2 to 2049, which is odd,
# so its edges are not dyadic
HELD_BOXES = [2, 7, 64, 1000, 2049]


def assert_dust_holds(dust, points, counted, tmp_path):
    """dust is the sorted points, as a dust that keys them one by one would
    be: its points view is the points bit for bit, its covers at
    HELD_BOXES count what keying every point counts, and write_dust writes
    the plain per-point repr join. counted says whether the dust holds its
    runs as values and counts (so cover keys its runs and write_dust
    repeats their lines) or every point."""
    assert (dust.counts is not None) == counted
    assert dust.sample_size == points.size
    assert np.array_equal(_bits(dust.points), _bits(points))
    for B in HELD_BOXES:
        keys = np.minimum((points * B).astype(np.int64), B - 1)
        assert np.array_equal(cover(dust, B).counts,
                              np.bincount(keys, minlength=B)), B
    path = tmp_path / "dust.txt"
    write_dust(dust, path)
    # compared first, so that a failure does not diff megabytes of text
    same = path.read_text() == "".join(f"{p!r}\n" for p in points.tolist())
    assert same, "write_dust's text is not the per-point repr join"


class TestDustHeldAsRuns:
    """Every generator's dust, held as its runs or as its points, is the
    dust of the points it stands for (old == new): the cascades' against
    the level-by-level walk, sorted, and the others against an
    enumeration or the same draws. A dust holds its runs while it has at
    most S // _RUN_SHARE of them, so none does at S = 1 or 7, of the
    cascades at S = 1e5 only the depth-5 one does, and the depth-13 ones
    do from S = 2^19 on."""

    @pytest.mark.parametrize("S", [1, 7, 100_000])
    @pytest.mark.parametrize("name", WALK_SPECS)
    def test_selfsimilar(self, tmp_path, name, S):
        spec = _walk_spec(name, S, seed=S % 5)
        ref = np.sort(_walk_points(spec, S, np.random.default_rng(spec.seed)))
        counted = S == 100_000 and name == "shallow"
        assert_dust_holds(gen_selfsimilar(spec), ref, counted, tmp_path)

    @pytest.mark.parametrize("name", ["binomial", "unequal-ratios"])
    def test_selfsimilar_at_depth_13_holds_its_runs(self, tmp_path, name):
        spec = _walk_spec(name, 2**20, seed=11)
        ref = np.sort(_walk_points(spec, spec.S, np.random.default_rng(11)))
        assert_dust_holds(gen_selfsimilar(spec), ref, True, tmp_path)

    @pytest.mark.parametrize("a, b, disjoint, counted", [
        (("shallow", 100_000, 1), ("shallow", 100_000, 2), False, True),
        (("shallow", 50_000, 1), ("binomial", 2**19, 2), True, True),
        (("binomial", 2**19, 3), ("unequal-ratios", 2**19, 4), False, True),
        (("middle-third", 100_000, 1), ("below-table", 100_003, 2), True,
         False),
        (("binomial", 7, 1), ("unequal-ratios", 7, 2), False, False),
    ], ids=["overlapping-same-tree", "disjoint", "overlapping",
            "disjoint-below-table", "overlapping-S-7"])
    def test_superposed(self, tmp_path, a, b, disjoint, counted):
        # the first pair shares every value, so their runs join; the fourth
        # joins a dust of runs with one of points in draw order
        a, b = _walk_spec(a[0], a[1], a[2]), _walk_spec(b[0], b[1], b[2])
        n_a = round(0.4 * (a.S + b.S))
        pts_a = _walk_points(a, n_a, np.random.default_rng(a.seed))
        pts_b = _walk_points(b, a.S + b.S - n_a, np.random.default_rng(b.seed))
        if disjoint:
            pts_a, pts_b = 0.5 * pts_a, 0.5 + 0.5 * pts_b
        ref = np.sort(np.concatenate([pts_a, pts_b]))
        dust = gen_superposed(a, b, 0.4, disjoint=disjoint)
        assert_dust_holds(dust, ref, counted, tmp_path)

    @pytest.mark.parametrize("Q", [2, 30, 300])
    def test_farey(self, tmp_path, Q):
        ref = np.array(sorted({float(Fraction(p, q)) for q in range(1, Q + 1)
                               for p in range(0, q + 1)}))
        assert_dust_holds(gen_farey(Q), ref, False, tmp_path)

    @pytest.mark.parametrize("mode", ["equispaced", "random"])
    def test_uniform(self, tmp_path, mode):
        S = 100_000
        ref = ((np.arange(S) + 0.5) / S if mode == "equispaced"
               else np.sort(np.random.default_rng(8).random(S)))
        assert_dust_holds(gen_uniform(S, mode, seed=8), ref, False, tmp_path)

    def test_signed_zeros_and_one_from_points_and_from_runs(self, tmp_path):
        # -0.0 == 0.0, so these points are in order and make four runs;
        # given as runs out of order, the runs sort stably and equal bits
        # join
        ref = np.repeat([0.0, -0.0, 0.0, 1.0], 64)
        dust = CantorDust(ref)
        assert np.array_equal(_bits(dust.values), _bits([0.0, -0.0, 0.0, 1.0]))
        assert dust.counts.tolist() == [64, 64, 64, 64]
        assert_dust_holds(dust, ref, True, tmp_path)
        runs = CantorDust(np.array([1.0, 0.0, -0.0, 1.0, 0.0]),
                          np.array([30, 64, 64, 34, 64]))
        assert np.array_equal(_bits(runs.values), _bits(dust.values))
        assert np.array_equal(runs.counts, dust.counts)
        assert_dust_holds(runs, ref, True, tmp_path)

    @pytest.mark.parametrize("middle, counted", [(0, True), (2, False)],
                             ids=["at-the-cap", "one-run-past-it"])
    def test_runs_are_held_as_points_past_the_cap(self, tmp_path, middle,
                                                  counted):
        # 2 runs in 128 points, 128 // 64; or 3 runs in 130, past 130 // 64
        values, counts = np.array([0.75, 0.25, 0.5]), np.array([64, 64, 0])
        counts[2] = middle
        kept = counts > 0
        dust = CantorDust(values[kept], counts[kept])
        ref = np.repeat([0.25, 0.5, 0.75], [64, middle, 64])
        assert_dust_holds(dust, ref, counted, tmp_path)

    @pytest.mark.parametrize("counts", [
        [2, 0], [2, -1], [2.0, 3.0], [2], [[2, 3]]],
        ids=["zero", "negative", "float", "too-few", "two-dimensional"])
    def test_counts_that_are_not_one_positive_integer_a_value(self, counts):
        with pytest.raises(FormatError, match="dust counts must be positive "
                           "integers, one per value") as exc:
            CantorDust(np.array([0.25, 0.5]), np.array(counts))
        assert exc.value.exit_code == 1

    @pytest.mark.parametrize("values", [[0.5, -0.25], [np.nan, 0.5],
                                        [0.5, 1.5]])
    def test_runs_off_the_segment_are_refused(self, values):
        with pytest.raises(FormatError, match="dust points must lie in"):
            CantorDust(np.array(values), np.array([64, 64]))


def test_cascade_dust_and_its_covers_hold_no_point_array(monkeypatch):
    """gen_selfsimilar at S = 2^20 and depth 13 on one thread, then covers
    at 11 box counts, peaks below S bytes, an eighth of the S points'
    8S. The peak is the draw's, past a warm-up that makes the first-call
    imports:
    - the thread's count table and bincount's table per block (2 * 8 bytes
      a path, 2^13 paths);
    - the block buffers, _BLOCK points each: a draw (8 bytes a point),
      over which the last level writes the intp path codes that bincount
      takes without a copy, a uint16 path code (2) and a comparison mask
      (1), 11 bytes a point;
    - 64 KB for the generators, the thread and the box counts' arrays.
    What comes after the draw is smaller: the count table, the path table
    (at most 5 * 8 bytes a path), then the values and counts and their
    sorted copies as CantorDust joins the runs (4 * 8 bytes a path). Each
    more thread adds its own table and block buffers, whatever S is."""
    monkeypatch.setattr(oracles, "_cpus", lambda: 1)
    S, paths = 2**20, 2**13
    spec = SelfSimilarSpec((0.3, 0.7), (0.5, 0.5), 13, S, 4242)
    boxes = [int(B) for B in np.geomspace(100, 2 * math.isqrt(S), 11)]
    warm = gen_selfsimilar(SelfSimilarSpec((0.3, 0.7), (0.5, 0.5), 13, 1000,
                                           1))
    for B in boxes:
        cover(warm, B)
    bound = 2 * 8 * paths + 11 * _BLOCK + 64 * 1024
    assert max(8 * paths + 5 * 8 * paths, 4 * 8 * paths) < bound < S
    tracemalloc.start()
    try:
        dust = gen_selfsimilar(spec)
        measures = [cover(dust, B) for B in boxes]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dust.sample_size == S and dust.values.size <= paths
    assert all(m.counts.sum() == S for m in measures)
    assert peak <= bound


# q in [-5, 5] in steps of 0.05, with 0 and 1 on the grid exactly
Q_GRID = np.arange(-100, 101) / 20
EPS = np.finfo(float).eps
EQUAL_RATIOS = [((0.5, 0.5), (1 / 3, 1 / 3)), ((0.3, 0.7), (0.5, 0.5)),
                ((0.4, 0.6), (0.3, 0.3)), ((0.1, 0.9), (0.45, 0.45))]
UNEQUAL_RATIOS = [((0.25, 0.75), (0.2, 0.6)), ((0.3, 0.7), (0.5, 0.25)),
                  ((0.45, 0.55), (0.33, 0.66)), ((0.1, 0.9), (0.7, 0.3))]


def _oracle(p, r, q=Q_GRID):
    return oracle_spectrum(SelfSimilarSpec(p=p, r=r, depth=5, S=100), q)


def _brentq_tau(p, r, q, xtol, rtol):
    """One brentq root per q of p1^q r1^-tau + p2^q r2^-tau = 1."""
    from scipy.optimize import brentq

    def tau_of(qi):
        def g(t):
            return p[0] ** qi * r[0] ** -t + p[1] ** qi * r[1] ** -t - 1.0
        lo, hi = -100.0, 100.0
        while g(lo) > 0:
            lo *= 2
        while g(hi) < 0:
            hi *= 2
        return brentq(g, lo, hi, xtol=xtol, rtol=rtol)

    return np.array([tau_of(qi) for qi in q])


class TestOracle:
    def test_symmetric_collapses_to_support_dimension(self):
        spec = SelfSimilarSpec(**MIDDLE_THIRD, depth=5, S=100)
        orc = oracle_spectrum(spec, np.arange(-3, 3.01, 0.05))
        dim = math.log(2) / math.log(3)
        np.testing.assert_allclose(orc.alphas, dim, atol=1e-12)
        np.testing.assert_allclose(orc.fs, dim, atol=1e-12)

    def test_q_zero_gives_support_dimension(self):
        spec = SelfSimilarSpec(p=(0.3, 0.7), r=(0.5, 0.5), depth=5, S=100)
        orc = oracle_spectrum(spec, np.array([-0.05, 0.0, 0.05]))
        k = int(np.argmin(np.abs(orc.q_grid)))
        assert orc.fs[k] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p,r", EQUAL_RATIOS)
    def test_equal_ratio_matches_closed_form(self, p, r):
        """Equal ratios r1 = r2 = r give tau = ln(p1^q + p2^q) / ln r, so
            alpha = (p1^q ln p1 + p2^q ln p2) / ((p1^q + p2^q) ln r).

        tau: the bisection ends within one ulp of where its computed g
        changes sign. g sums two terms <= 1, each a few correctly rounded
        operations, so it is off by at most 4 eps, which moves the root by
        at most 4 eps / g' with g' = sum v_i ln(1/r) = ln(1/r). The closed
        form's ln z is off by 3 eps + eps |ln z|, so its tau by
        3 eps / ln(1/r) + 2 eps |tau|. Together:
            e_tau = ulp(tau) + 7 eps / ln(1/r) + 2 eps |tau|.
        alpha: both sides divide a sum of two same-sign products by another;
        the factor r^-tau the oracle puts on both products is the same
        double, so it cancels to within rounding. Each side is within 7 eps
        relative, so |d alpha| <= 14 eps |alpha|. f = q alpha - tau adds
        2 eps (|q alpha| + |tau|) of rounding on each side.
        """
        q = Q_GRID
        ln_r = math.log(r[0])
        w1, w2 = p[0] ** q, p[1] ** q
        z = w1 + w2
        alphas = (w1 * math.log(p[0]) + w2 * math.log(p[1])) / (z * ln_r)
        taus = np.log(z) / ln_r
        fs = q * alphas - taus
        orc = _oracle(p, r)
        np.testing.assert_array_equal(orc.q_grid, q)
        e_tau = (np.spacing(np.abs(taus)) + 7 * EPS / -ln_r
                 + 2 * EPS * np.abs(taus))
        e_alpha = 14 * EPS * np.abs(alphas)
        e_f = (np.abs(q) * e_alpha + e_tau
               + 4 * EPS * (np.abs(q * alphas) + np.abs(taus)))
        assert np.all(np.abs(orc.alphas - alphas) <= e_alpha)
        assert np.all(np.abs(orc.fs - fs) <= e_f)

    @pytest.mark.parametrize("p,r", [
        ((0.3, 0.7), (0.5, 0.5)),
        ((0.4, 0.6), (0.3, 0.3)),
        ((0.25, 0.75), (0.2, 0.6)),   # unequal ratios
    ])
    def test_tangency_at_q_one(self, p, r):
        spec = SelfSimilarSpec(p=p, r=r, depth=5, S=100)
        orc = oracle_spectrum(spec, np.arange(-5, 5.001, 0.05))
        k = int(np.argmin(np.abs(orc.q_grid - 1.0)))
        assert abs(orc.q_grid[k] - 1.0) < 1e-9
        assert abs(orc.fs[k] - orc.alphas[k]) <= 1e-10

    def test_unequal_ratio_root_residual(self):
        p, r = (0.25, 0.75), (0.2, 0.6)
        spec = SelfSimilarSpec(p=p, r=r, depth=5, S=100)
        orc = oracle_spectrum(spec, np.arange(-4, 4.001, 0.05))
        taus = orc.q_grid * orc.alphas - orc.fs
        res = (p[0] ** orc.q_grid * r[0] ** -taus
               + p[1] ** orc.q_grid * r[1] ** -taus - 1.0)
        assert np.max(np.abs(res)) <= 1e-10

    @pytest.mark.parametrize("p,r", UNEQUAL_RATIOS)
    def test_f_at_zero_is_moran_dimension(self, p, r):
        """f(0) = -tau(0) is the support dimension D0: r1^D0 + r2^D0 = 1.

        h(D) = r1^D + r2^D - 1 has |h'| = sum r_i^D ln(1/r_i) >= c =
        min ln(1/r_i) at the root, so brentq's D0 is within
        xtol + rtol D0 + 4 eps / c, and the oracle's tau(0) within
        ulp(D0) + 4 eps / c (see the brentq agreement test).
        """
        from scipy.optimize import brentq

        xtol, rtol = 1e-14, 8.9e-16
        d0 = brentq(lambda d: r[0] ** d + r[1] ** d - 1.0, 0.0, 1.0,
                    xtol=xtol, rtol=rtol)
        c = min(math.log(1 / r[0]), math.log(1 / r[1]))
        orc = _oracle(p, r)
        f0 = orc.fs[orc.q_grid == 0.0]
        assert f0.size == 1
        assert abs(f0[0] - d0) <= (xtol + rtol * d0 + np.spacing(d0)
                                   + 8 * EPS / c)

    @pytest.mark.parametrize("p,r", UNEQUAL_RATIOS)
    def test_alpha_positive(self, p, r):
        """alpha is a weighted mean of the ln p_i / ln r_i, all positive."""
        assert np.all(_oracle(p, r).alphas > 0)

    @pytest.mark.parametrize("p,r", EQUAL_RATIOS)
    def test_continuous_as_r2_approaches_r1(self, p, r):
        """Moving r2 from r1 = r to r - delta moves alpha and f by O(delta).

        g(tau) = sum v_i - 1 with v_i = p_i^q r_i^-tau is smooth in r2, and
        dg/dtau = sum v_i ln(1/r_i) >= c = ln(1/r1) > 0, so the implicit
        function theorem makes tau, v_i, alpha and f smooth in r2. With
        a_i = ln p_i, b_i = ln r_i and D = sum v_i b_i (|D| >= c):
            dtau/dr2 = tau v2 / (r2 |D|),       |.| <= L_tau = |tau| / (r2 c)
            dv2/dr2 = v2 (ln(1/r2) dtau/dr2 - tau / r2),
                                      |.| <= L_v = |tau| / r2 + ln(1/r2) L_tau
            dalpha/dr2 = (dv2 (a2 - a1) - alpha (dv2 (b2 - b1) + v2 / r2)) / D,
                    |.| <= L_alpha = (L_v (|a2 - a1| + |alpha| |b2 - b1|)
                                      + |alpha| / r2) / c
            df/dr2 = q dalpha/dr2 - dtau/dr2,   |.| <= |q| L_alpha + L_tau.
        The bounds are read at r2 = r and doubled, which covers their own
        O(delta) drift over [r - delta, r]. The output's rounding (see the
        closed-form test) is far below delta = 1e-7 times these.
        """
        delta = 1e-7
        r2 = r[1] - delta
        ref, moved = _oracle(p, r), _oracle(p, (r[0], r2))
        np.testing.assert_array_equal(moved.q_grid, ref.q_grid)
        q, alpha = ref.q_grid, np.abs(ref.alphas)
        tau = np.abs(q * ref.alphas - ref.fs)
        c = math.log(1 / r[0])
        l_tau = tau / (r2 * c)
        l_v = tau / r2 + math.log(1 / r2) * l_tau
        l_alpha = (l_v * (abs(math.log(p[1] / p[0]))
                          + alpha * math.log(r[0] / r2)) + alpha / r2) / c
        l_f = np.abs(q) * l_alpha + l_tau
        assert np.all(np.abs(moved.alphas - ref.alphas) <= 2 * l_alpha * delta)
        assert np.all(np.abs(moved.fs - ref.fs) <= 2 * l_f * delta)

    def test_alpha_monotone_and_cap(self):
        spec = SelfSimilarSpec(p=(0.3, 0.7), r=(0.5, 0.5), depth=5, S=100)
        q = np.arange(-5, 5.001, 0.05)
        orc = oracle_spectrum(spec, q)
        assert np.all(np.diff(orc.alphas) <= 1e-12)
        k = int(np.argmin(np.abs(orc.q_grid)))
        assert np.argmax(orc.fs) == k

    @pytest.mark.parametrize("p,r", [((0.3, 0.7), (0.5, 0.5)),
                                     ((0.3, 0.7), (0.25, 0.4))])
    def test_large_q_reaches_the_ends_finite(self, p, r):
        # p_i^q and r_i^-tau overflow here; their logs do not. Under the
        # suite's filterwarnings = error an overflow warning fails the test.
        orc = _oracle(p, r, [600.0, 1000.0, -600.0, -1000.0])
        ends = sorted(math.log(p[i]) / math.log(r[i]) for i in (0, 1))
        np.testing.assert_allclose(orc.alphas, [ends[0]] * 2 + [ends[1]] * 2,
                                   rtol=0, atol=1e-9)
        assert np.all(np.abs(orc.fs) <= 1e-9)

    @pytest.mark.parametrize("p,r", [
        ((0.25, 0.75), (0.2, 0.6)),
        ((0.3, 0.7), (0.5, 0.25)),
        ((0.45, 0.55), (0.33, 0.66)),
    ])
    def test_unequal_ratio_bisection_matches_brentq(self, p, r):
        """tau agrees with a brentq root per q, and alpha with brentq's
        centred differences.

        tau: brentq stops once the root lies within xtol + rtol |tau| of its
        answer, and the bisection's answer is the midpoint of two adjacent
        doubles, within one ulp of tau. An error in g moves a root by at
        most that error over g'(tau) = sum v_i ln(1/r_i) >= c = min ln(1/r_i)
        (the v_i = p_i^q r_i^-tau sum to 1 at the root). brentq reads the
        sign of g from a sum of two powers near 1, wrong by 4 eps. The
        oracle reads it from logaddexp of e_i = q ln p_i - tau ln r_i: the
        logs, the products and the difference round each e_i by at most
        2 (|q ln p_i| + |tau ln r_i|) eps, and logaddexp adds 4 eps. With
        k = max_i (|q ln p_i| + |tau ln r_i|), per tau:
            e = xtol + rtol |tau| + ulp(tau) + (8 + 2 k) eps / c.
        Reading the oracle's tau back as q alpha - f adds
        2 eps (|q alpha| + |f|).

        alpha: with a_i = ln p_i, b_i = ln r_i and s_i = a_i - alpha b_i,
        differentiating sum v_i = 1 three times in q gives
            tau''  = sum v s^2 / sum v b,
            tau''' = (sum v s^3 - 3 tau'' sum v s b) / sum v b.
        alpha is a weighted mean of the a_i / b_i, whose spread is d, so
        |s_i| <= b d with b = max |b_i|, and |sum v b| >= c. Hence
            |tau'''| <= M = b^3 d^3 / c + 3 b^4 d^3 / c^2.
        A centred difference of step h misses tau' by at most h^2 M / 6,
        and brentq's error e in each tau adds e / h.
        """
        xtol, rtol = 1e-14, 8.9e-16
        q, h = Q_GRID, 0.05
        taus = _brentq_tau(p, r, q, xtol, rtol)
        orc = _oracle(p, r)
        np.testing.assert_array_equal(orc.q_grid, q)

        c = min(math.log(1 / r[0]), math.log(1 / r[1]))
        k = np.maximum(*(np.abs(q * math.log(p[i]))
                         + np.abs(taus * math.log(r[i])) for i in (0, 1)))
        e = (xtol + rtol * np.abs(taus) + np.spacing(np.abs(taus))
             + (8 + 2 * k) * EPS / c)
        read_back = 2 * EPS * (np.abs(q * orc.alphas) + np.abs(orc.fs))
        assert np.all(np.abs(q * orc.alphas - orc.fs - taus)
                      <= e + read_back)

        ratios = [math.log(p[i]) / math.log(r[i]) for i in (0, 1)]
        b = max(math.log(1 / r[0]), math.log(1 / r[1]))
        d = abs(ratios[0] - ratios[1])
        m = b ** 3 * d ** 3 / c + 3 * b ** 4 * d ** 3 / c ** 2
        centred = (taus[2:] - taus[:-2]) / (2 * h)
        bound = h ** 2 * m / 6 + np.max(e) / h
        assert np.max(np.abs(orc.alphas[1:-1] - centred)) <= bound


class TestSuperposed:
    def spec(self, r, seed=0, S=100):
        return SelfSimilarSpec(p=(0.5, 0.5), r=(r, r), depth=8, S=S,
                               seed=seed)

    def test_full_mix_rejected(self):
        with pytest.raises(SpecError):
            gen_superposed(self.spec(1 / 3), self.spec(1 / 9), mix=1.0)

    def test_budget_split(self):
        dust = gen_superposed(self.spec(1 / 3, S=60), self.spec(1 / 9, S=40),
                              mix=0.5)
        assert dust.sample_size == 100

    @pytest.mark.parametrize("mix, name", [
        (0.001, "spec_a"), (0.005, "spec_a"), (0.995, "spec_b"),
        (0.999, "spec_b")])
    def test_a_mix_that_leaves_a_cascade_no_point_is_refused(self, mix,
                                                             name):
        # round(mix * 100) is 0 or 100 (0.5 rounds to even), so one cascade
        # would give the union none of its points
        with pytest.raises(SpecError, match=f"^mix {mix} gives {name} 0 of "
                           "100 points$") as exc:
            gen_superposed(self.spec(1 / 3, S=50), self.spec(1 / 9, S=50),
                           mix=mix)
        assert exc.value.exit_code == 2

    @pytest.mark.parametrize("mix", [0.01, 0.99])
    def test_a_mix_that_leaves_a_cascade_one_point_is_kept(self, mix):
        dust = gen_superposed(self.spec(1 / 3, S=50), self.spec(1 / 9, S=50),
                              mix=mix, disjoint=True)
        below = np.count_nonzero(dust.points < 0.5)
        assert dust.sample_size == 100
        assert below == round(mix * 100)

    def test_disjoint_placement(self):
        dust = gen_superposed(self.spec(1 / 3, seed=1),
                              self.spec(1 / 9, seed=2),
                              mix=0.5, disjoint=True)
        pts = np.sort(dust.points)
        # 200 points total, half from each cascade, split at the midpoint
        assert pts[99] < 0.5 <= pts[100]


class TestFarey:
    def test_q2(self):
        assert gen_farey(2).points.tolist() == [0.0, 0.5, 1.0]

    def test_q5_enumeration(self):
        expected = [0, 1 / 5, 1 / 4, 1 / 3, 2 / 5, 1 / 2, 3 / 5, 2 / 3,
                    3 / 4, 4 / 5, 1]
        np.testing.assert_allclose(gen_farey(5).points, expected)

    @pytest.mark.parametrize("Q", [2, 7, 30, 200])
    def test_count_matches_totient_sum(self, Q):
        # independent count: brute-force reduced fractions via Fraction
        brute = {Fraction(p, q) for q in range(1, Q + 1)
                 for p in range(0, q + 1)}
        assert gen_farey(Q).sample_size == len(brute)

    @pytest.mark.parametrize("Q", [2, 7, 30, 200])
    def test_points_bit_identical_to_fraction_enumeration(self, Q):
        expected = np.array(sorted({float(Fraction(p, q))
                                    for q in range(1, Q + 1)
                                    for p in range(0, q + 1)}))
        assert gen_farey(Q).points.tobytes() == expected.tobytes()

    def test_count_matches_gcd_count_up_to_100(self):
        points = [0.0, 1.0]  # 0/1 and 1/1
        for Q in range(2, 101):
            points += [p / Q for p in range(1, Q) if math.gcd(p, Q) == 1]
            dust = gen_farey(Q)
            assert dust.sample_size == len(points), Q
            assert dust.points.tobytes() == np.sort(points).tobytes(), Q

    def test_count_200(self):
        assert gen_farey(200).sample_size == 12233

    def test_reflection_symmetry(self):
        pts = gen_farey(40).points
        np.testing.assert_allclose(np.sort(1.0 - pts), pts, atol=1e-15)


class TestUniform:
    def test_equispaced(self):
        assert gen_uniform(4).points.tolist() == [0.125, 0.375, 0.625, 0.875]

    def test_random_mode_seeded(self):
        d1 = gen_uniform(100, "random", seed=4)
        d2 = gen_uniform(100, "random", seed=4)
        assert np.array_equal(d1.points, d2.points)
        assert np.all((d1.points >= 0) & (d1.points <= 1))

    def test_unknown_mode(self):
        with pytest.raises(SpecError):
            gen_uniform(10, "stratified")

    @pytest.mark.parametrize("seed", [0.5, 4.0, True],
                             ids=["float", "whole-float", "bool"])
    def test_a_seed_that_is_not_an_integer_is_refused(self, seed):
        with pytest.raises(SpecError, match=f"^seed must be an integer, "
                           f"got {seed!r}$") as exc:
            gen_uniform(10, "random", seed=seed)
        assert exc.value.exit_code == 2
