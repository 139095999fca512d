import math
from fractions import Fraction

import numpy as np
import pytest

from mfkappa.errors import DepthTooLarge, GridTooCoarse, SpecError
from mfkappa.oracles import (SelfSimilarSpec, gen_farey, gen_selfsimilar,
                             gen_superposed, gen_uniform, oracle_spectrum)

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

    def test_determinism(self):
        spec = SelfSimilarSpec(p=(0.3, 0.7), r=(0.5, 0.5), depth=13,
                               S=1000, seed=7)
        d1 = gen_selfsimilar(spec)
        d2 = gen_selfsimilar(spec)
        assert np.array_equal(d1.points, d2.points)

    def test_depth_guard(self):
        spec = SelfSimilarSpec(p=(0.5, 0.5), r=(0.01, 0.01), depth=200,
                               S=10)
        with pytest.raises(DepthTooLarge):
            gen_selfsimilar(spec)

    def test_points_confined_to_depth_one_cells(self):
        spec = SelfSimilarSpec(p=(0.4, 0.6), r=(0.25, 0.25), depth=6,
                               S=500, seed=3)
        pts = gen_selfsimilar(spec).points
        assert np.all((pts < 0.25) | (pts > 0.75))


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

    @pytest.mark.parametrize("p,r", [
        ((0.3, 0.7), (0.5, 0.5)),
        ((0.4, 0.6), (0.3, 0.3)),
        ((0.25, 0.75), (0.2, 0.6)),   # unequal ratios: numeric route
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
        res = (p[0] ** orc.q_grid * r[0] ** taus
               + p[1] ** orc.q_grid * r[1] ** taus - 1.0)
        assert np.max(np.abs(res)) <= 1e-10

    def test_alpha_monotone_and_cap(self):
        spec = SelfSimilarSpec(p=(0.3, 0.7), r=(0.5, 0.5), depth=5, S=100)
        q = np.arange(-5, 5.001, 0.05)
        orc = oracle_spectrum(spec, q)
        assert np.all(np.diff(orc.alphas) <= 1e-12)
        k = int(np.argmin(np.abs(orc.q_grid)))
        assert np.argmax(orc.fs) == k

    @pytest.mark.parametrize("p,r", [
        ((0.25, 0.75), (0.2, 0.6)),
        ((0.3, 0.7), (0.5, 0.25)),
        ((0.45, 0.55), (0.33, 0.66)),
    ])
    def test_unequal_ratio_bisection_matches_brentq(self, p, r):
        """The vectorised bisection agrees with a brentq root per q.

        brentq stops once the root lies within xtol + rtol |tau| of its
        answer, and the bisection's answer is the midpoint of two adjacent
        doubles, within one ulp of tau. Both read the sign of g from a sum
        of two powers near 1, wrong by a few eps = 2.2e-16 at most, which
        moves a root by at most that over |g'(tau)| >= min ln(1/r_i) (the
        terms at the root sum to 1). Per tau, with 4 eps for each method:
            e = xtol + rtol |tau| + ulp(tau) + 8 eps / min ln(1/r_i),
        about 2.5e-14 at |tau| <= 8.6. alpha is a difference of two taus
        over a span of 0.1, so |d alpha| <= 2e / 0.1 = 20e (about 5e-13);
        f = q alpha - tau gives |d f| <= 5 * 20e + e = 101e (about 3e-12)
        on q in [-5, 5].
        """
        from scipy.optimize import brentq

        xtol, rtol, eps = 1e-14, 8.9e-16, np.finfo(float).eps

        def tau_of(qi):
            def g(t):
                return p[0] ** qi * r[0] ** t + p[1] ** qi * r[1] ** t - 1.0
            lo, hi = -100.0, 100.0
            while g(lo) < 0:
                lo *= 2
            while g(hi) > 0:
                hi *= 2
            return brentq(g, lo, hi, xtol=xtol, rtol=rtol)

        q = np.arange(-5, 5.001, 0.05)
        taus = np.array([tau_of(qi) for qi in q])
        alphas = (taus[2:] - taus[:-2]) / (q[2:] - q[:-2])
        fs = q[1:-1] * alphas - taus[1:-1]
        tau_max = np.max(np.abs(taus))
        e = (xtol + rtol * tau_max + np.spacing(tau_max)
             + 8 * eps / min(math.log(1 / r[0]), math.log(1 / r[1])))
        orc = oracle_spectrum(SelfSimilarSpec(p=p, r=r, depth=5, S=100), q)
        np.testing.assert_array_equal(orc.q_grid, q[1:-1])
        assert np.max(np.abs(orc.alphas - alphas)) <= 20 * e
        assert np.max(np.abs(orc.fs - fs)) <= 101 * e

    def test_coarse_grid_rejected(self):
        spec = SelfSimilarSpec(p=(0.25, 0.75), r=(0.2, 0.6), depth=5, S=100)
        with pytest.raises(GridTooCoarse):
            oracle_spectrum(spec, np.arange(-5, 5.1, 0.5))


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
