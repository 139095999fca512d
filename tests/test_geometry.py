import copy
import json
import math
import re
import tracemalloc
from dataclasses import asdict, astuple
from itertools import chain
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from mfkappa import geometry
from mfkappa.errors import FormatError, MfkError, SpecError
from mfkappa.geometry import (_SCREEN_CELLS, FragmentReport, GeometryConfig,
                              IsolatedPoint, SegmentReport, SpectrumFeatures,
                              _chord_bound, _line_fit_residual,
                              _window_groups, _window_screen,
                              cap_shape_check, classify, compare_sweep,
                              default_gap_threshold, detect_fragments,
                              detect_segment, features)
from mfkappa.spectrum import Spectrum


def make_spectrum(alphas, fs, eps_alpha=0.0):
    order = np.argsort(alphas)
    return Spectrum(np.asarray(alphas, float)[order],
                    np.asarray(fs, float)[order], S=0, B=100, A=len(alphas),
                    epsilon_alpha=eps_alpha)


# acceleration-sweep fixture: box counts 100 and 200 on the same signal
TABLE1_B100 = make_spectrum([0.9091, 0.9694, 1.120], [0.30, 0.7235, 0.25])
TABLE1_B200_FEATURES = SpectrumFeatures(
    alpha_min=0.8768, alpha_max=1.1278, alpha_M=0.9485, f_max=0.7457,
    delta_alpha=1.1278 - 0.8768, bisectrix_gap=0.9485 - 0.7457)


class TestFeatures:
    def test_three_point_fixture(self):
        f = features(TABLE1_B100)
        assert f.alpha_min == 0.9091
        assert f.alpha_M == 0.9694
        assert f.f_max == 0.7235
        assert f.alpha_max == 1.120

    def test_delta_alpha(self):
        s = make_spectrum([0.943, 1.0, 1.133], [0.3, 0.7, 0.2])
        assert features(s).delta_alpha == pytest.approx(0.19, abs=1e-12)

    def test_single_point(self):
        s = make_spectrum([0.6309], [0.6309])
        f = features(s)
        assert f.alpha_min == f.alpha_M == f.alpha_max == 0.6309
        assert f.delta_alpha == 0.0

    def test_tie_breaks_toward_smaller_alpha(self):
        s = make_spectrum([0.9, 1.0, 1.1], [0.5, 0.7, 0.7])
        assert features(s).alpha_M == 1.0

    def test_order_invariance(self):
        a = [1.1, 0.9, 1.0]
        f = [0.25, 0.30, 0.72]
        assert features(make_spectrum(a, f)) == \
            features(make_spectrum(a[::-1], f[::-1]))

    def test_bisectrix_gap_nonpositive_when_curve_touches(self):
        s = make_spectrum([0.5, 0.7, 0.9], [0.3, 0.7, 0.4])
        assert features(s).bisectrix_gap <= 1e-12

    def test_empty_spectrum_refused(self):
        # where it is built, so features and classify never see one
        with pytest.raises(FormatError, match="of one length >= 1") as exc:
            make_spectrum([], [])
        assert exc.value.exit_code == 1


class TestCompareSweep:
    def test_table1_trend(self):
        trend = compare_sweep([features(TABLE1_B100), TABLE1_B200_FEATURES])
        assert trend["delta_alpha_min"] < 0          # left shift
        assert trend["delta_f_max"] > 0              # up shift
        assert trend["approaching_bisectrix"]

    def test_table2_cusp_motion(self):
        f100 = SpectrumFeatures(0.9, 1.1, 0.9788, 0.7235, 0.2,
                                0.9788 - 0.7235)
        f150 = SpectrumFeatures(0.9, 1.1, 0.9762, 0.7923, 0.2,
                                0.9762 - 0.7923)
        trend = compare_sweep([f100, f150])
        assert trend["delta_alpha_M"] < 0
        assert trend["delta_f_max"] > 0
        assert trend["approaching_bisectrix"]

    def test_identical_features_flag_off(self):
        f = features(TABLE1_B100)
        trend = compare_sweep([f, f])
        assert trend["delta_alpha_min"] == 0.0
        assert not trend["approaching_bisectrix"]

    def test_needs_two_entries(self):
        with pytest.raises(MfkError, match="trend comparison needs >= 2 "
                           "feature sets") as exc:
            compare_sweep([features(TABLE1_B100)])
        assert exc.value.exit_code == 1


class TestCapShape:
    def test_parabola_is_cap(self):
        alphas = np.arange(0.8, 1.2001, 0.05)
        fs = 1 - 4 * (alphas - 1) ** 2
        assert cap_shape_check(make_spectrum(alphas, fs), tol=0.02)

    def test_w_shape_rejected(self):
        assert not cap_shape_check(
            make_spectrum([0.9, 1.0, 1.1], [0.5, 0.2, 0.5]), tol=0.02)

    def test_monotone_is_degenerate_cap(self):
        assert cap_shape_check(
            make_spectrum([0.9, 1.0, 1.1], [0.1, 0.2, 0.5]), tol=0.02)

    def test_too_few_points(self):
        with pytest.raises(MfkError, match="cap test needs >= 3 points, "
                           "got 2") as exc:
            cap_shape_check(make_spectrum([0.9, 1.0], [0.1, 0.2]))
        assert exc.value.exit_code == 1


def cap_with_run():
    """Cap fixture with a 5-point collinear stretch f = 0.5a + 0.2."""
    left = [(0.70, 0.30), (0.75, 0.42), (0.80, 0.52)]
    run = [(0.85 + 0.05 * k, 0.5 * (0.85 + 0.05 * k) + 0.2)
           for k in range(5)]
    right = [(1.15, 0.70), (1.20, 0.55)]
    pts = left + run + right
    return make_spectrum([p[0] for p in pts], [p[1] for p in pts])


class TestSegment:
    def test_exact_collinear_run_found(self):
        rep = detect_segment(cap_with_run(), residual_tol=1e-9, min_run=5)
        assert rep.found
        assert rep.slope == pytest.approx(0.5, abs=1e-9)
        assert rep.residual <= 1e-9

    def test_parabola_rejected(self):
        alphas = np.arange(0.8, 1.2001, 0.05)
        fs = 1 - 4 * (alphas - 1) ** 2
        spec = make_spectrum(alphas, fs)
        # independent residual bound: best 4-point least-squares line on
        # the parabola still misses by far more than 1e-6
        best = math.inf
        for i in range(len(alphas) - 3):
            coef = np.polyfit(alphas[i:i + 4], fs[i:i + 4], 1)
            resid = np.max(np.abs(fs[i:i + 4] - np.polyval(coef,
                                                           alphas[i:i + 4])))
            best = min(best, resid)
        assert best > 1e-6
        assert not detect_segment(spec, residual_tol=1e-6, min_run=4).found

    def test_noise_below_tolerance_found(self):
        rng = np.random.default_rng(8)
        alphas = np.arange(0.8, 1.2001, 0.05)
        fs = 0.5 * alphas + 0.2 + rng.uniform(-1e-4, 1e-4, alphas.size)
        rep = detect_segment(make_spectrum(alphas, fs),
                             residual_tol=1e-3, min_run=4)
        assert rep.found

    def test_matches_exhaustive_search(self):
        """Longest-first search returns what the exhaustive search over
        every window did, field for field, on fuzzed spectra with tied f
        values, collinear runs and n from 1 to 29."""

        def exhaustive(spectrum, residual_tol, min_run):
            min_run = max(4, min_run)
            alphas, fs = spectrum.alphas, spectrum.fs
            n = fs.size
            best = None
            for i in range(n):
                for j in range(i + min_run - 1, n):
                    slope, resid = _line_fit_residual(alphas[i:j + 1],
                                                      fs[i:j + 1])
                    if resid <= residual_tol:
                        length = j - i + 1
                        if best is None or length > best[0] or \
                                (length == best[0] and resid < best[3]):
                            best = (length, i, j, resid, slope)
            if best is None:
                return SegmentReport(found=False)
            _, i, j, resid, slope = best
            return SegmentReport(found=True, run=(i, j), slope=slope,
                                 residual=resid)

        rng = np.random.default_rng(20)
        found = 0
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            alphas = np.cumsum(rng.choice([0.05, 0.125, 0.25], n))
            kind = rng.integers(4)
            if kind == 0:    # few f levels: tied values
                fs = rng.choice([0.0, 0.25, 0.5], n)
            elif kind == 1:  # zero runs fit exactly: tied residuals of 0.0
                fs = np.where(rng.random(n) < 0.15, 0.5, 0.0)
            elif kind == 2:  # a line with small noise
                fs = 0.5 * alphas + rng.uniform(-0.01, 0.01, n)
            else:            # a cap
                fs = 1 - (alphas - alphas.mean()) ** 2
            spec = make_spectrum(alphas, fs)
            tol = float(rng.choice([1e-12, 0.01, 0.02, 0.1, 0.3]))
            min_run = int(rng.integers(1, 12))
            new = detect_segment(spec, tol, min_run)
            assert astuple(new) == astuple(exhaustive(spec, tol, min_run))
            found += new.found
        assert 100 < found < 900


def fit_every_window(spectrum, residual_tol, min_run):
    """detect_segment before the screen: polyfit on every window of every
    run length, longest first."""
    min_run = max(4, min_run)
    alphas, fs = spectrum.alphas, spectrum.fs
    n = fs.size
    for length in range(n, min_run - 1, -1):
        hits = []
        for i in range(n - length + 1):
            j = i + length - 1
            slope, resid = _line_fit_residual(alphas[i:j + 1], fs[i:j + 1])
            if resid <= residual_tol:
                hits.append((resid, i, j, slope))
        if hits:
            resid, i, j, slope = min(hits)
            return SegmentReport(found=True, run=(i, j), slope=slope,
                                 residual=resid)
    return SegmentReport(found=False)


def fuzz_spectra(seed, count):
    """Spectra with n from 1 to 60, alpha offsets up to 1e3, tied f values,
    exactly collinear (zero-residual) runs, noisy lines and caps."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 61))
        offset = float(rng.choice([0.0, 1.0, 10.0, 1e3]))
        alphas = offset + np.cumsum(rng.choice([0.05, 0.125, 0.25], n))
        centred = alphas - alphas.mean()
        kind = rng.integers(5)
        if kind == 0:    # few f levels: tied values and tied windows
            fs = rng.choice([0.0, 0.25, 0.5], n)
        elif kind == 1:  # zero runs fit exactly: tied residuals of 0.0
            fs = np.where(rng.random(n) < 0.15, 0.5, 0.0)
        elif kind == 2:  # a line with small noise
            fs = 0.5 + rng.uniform(-3, 3) * centred + \
                rng.uniform(-0.01, 0.01, n)
        elif kind == 3:  # a cap
            fs = 1 - centred ** 2
        else:            # noise
            fs = rng.random(n)
        tol = float(rng.choice([1e-12, 0.01, 0.02, 0.1, 0.3]))
        yield make_spectrum(alphas, fs), tol, int(rng.integers(1, 12))


def screen_each_length(spectrum, residual_tol, min_run):
    """detect_segment with one screen per run length, longest first: the
    old==new reference for the one-pass screen. Returns the report and the
    number of windows it fitted by polyfit."""
    min_run = max(4, min_run)
    alphas, fs = spectrum.alphas, spectrum.fs
    n = fs.size
    fits = 0
    for length in range(n, min_run - 1, -1):
        a = sliding_window_view(alphas, length)
        f = sliding_window_view(fs, length)
        da = a - a.mean(axis=1, keepdims=True)
        df = f - f.mean(axis=1, keepdims=True)
        slope = np.sum(da * df, axis=1) / np.sum(da * da, axis=1)
        screened = np.max(np.abs(df - slope[:, None] * da), axis=1)
        a_max = np.max(np.abs(a), axis=1)
        scale = (np.max(np.abs(f), axis=1) + np.abs(slope) * a_max
                 + a_max / (a[:, -1] - a[:, 0]) * screened)
        margin = 16 * length ** 2 * np.finfo(float).eps * scale
        hits = []
        for i in np.flatnonzero(~(screened > residual_tol + margin)).tolist():
            j = i + length - 1
            slope, resid = _line_fit_residual(alphas[i:j + 1], fs[i:j + 1])
            fits += 1
            if resid <= residual_tol:
                hits.append((resid, i, j, slope))
        if hits:
            resid, i, j, slope = min(hits)
            return SegmentReport(found=True, run=(i, j), slope=slope,
                                 residual=resid), fits
    return SegmentReport(found=False), fits


def near_lines(seed, count):
    """(alphas, fs) of 4 to 60 points on lines exact to rounding, with alpha
    offsets up to 2**40 and spacings down to 1e-12 (raised to 8 ulps of the
    alphas, so that they still increase); some carry noise of 1e-9, and
    some are folded at f = 0 by abs."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(4, 61))
        offset = float(rng.choice([0.0, 1.0, 1e3, 2.0**20, 2.0**40]))
        step = float(rng.choice([1e-12, 1e-9, 1e-6, 0.05, 0.25, 3.0]))
        step = max(step, 8 * float(np.spacing(offset + 240 * step)))
        alphas = offset + np.cumsum(step * rng.choice([1.0, 2.5, 4.0], n))
        t = (alphas - alphas[0]) / (alphas[-1] - alphas[0])
        fs = rng.uniform(-1, 1) + rng.uniform(-3, 3) * t
        kind = rng.integers(3)
        if kind == 1:
            fs += rng.uniform(-1e-9, 1e-9, n)
        elif kind == 2:
            fs = np.abs(fs)
        yield alphas, fs


def sweep_sized_cap(n):
    """A cap of n points: classify's default min_run, ceil(n / 2), leaves
    no collinear run in it."""
    alphas = np.linspace(0.5, 1.5, n)
    return make_spectrum(alphas, 1 - (alphas - 1) ** 2)


def count_calls(monkeypatch, name):
    """Wrap geometry.<name> so that each call adds one to the returned
    list's only entry."""
    calls = [0]
    fn = getattr(geometry, name)

    def counted(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(geometry, name, counted)
    return calls


class TestSegmentScreen:
    def test_matches_fitting_every_window(self):
        found = 0
        for spec, tol, min_run in fuzz_spectra(31, 120):
            new = detect_segment(spec, tol, min_run)
            assert astuple(new) == astuple(fit_every_window(spec, tol,
                                                            min_run))
            found += new.found
        assert 20 < found < 100

    def test_margin_bounds_screen_error_on_every_window(self):
        windows = 0
        for spec, _, _ in fuzz_spectra(32, 60):
            alphas, fs = spec.alphas, spec.fs
            seen = 0
            for length, start in _window_groups(fs.size, 4):
                screened, margin = _window_screen(alphas, fs, length, start)
                fitted = [_line_fit_residual(alphas[i:i + size],
                                             fs[i:i + size])[1]
                          for size, i in zip(length.tolist(),
                                             start.tolist())]
                assert np.all(np.abs(screened - fitted) <= margin)
                seen += len(fitted)
            longest = max(fs.size - 3, 0)  # n - L + 1 windows of each L >= 4
            assert seen == longest * (longest + 1) // 2  # every window
            windows += seen
        assert windows > 10_000

    def test_window_at_exactly_the_tolerance_is_kept(self):
        """residual_tol set to polyfit's own residual of the whole run: the
        run is a hit, although the screen may read a hair above it."""
        rng = np.random.default_rng(33)
        screen_above = 0
        for _ in range(40):
            n = int(rng.integers(4, 30))
            alphas = 1e3 + np.cumsum(rng.choice([0.05, 0.125, 0.25], n))
            fs = 0.5 * (alphas - 1e3) + rng.uniform(-0.01, 0.01, n)
            spec = make_spectrum(alphas, fs)
            slope, tol = _line_fit_residual(alphas, fs)
            rep = detect_segment(spec, residual_tol=tol, min_run=n)
            assert astuple(rep) == (True, (0, n - 1), slope, tol)
            whole = _window_screen(alphas, fs, np.array([n]), np.array([0]))
            screen_above += whole[0][0] > tol
        assert screen_above > 0  # the margin, not luck, kept some of them

    def test_fits_as_many_windows_as_one_screen_per_length(self,
                                                           monkeypatch):
        calls = count_calls(monkeypatch, "_line_fit_residual")
        total = 0
        for spec, tol, min_run in fuzz_spectra(31, 400):
            before = calls[0]
            new = detect_segment(spec, tol, min_run)
            ref, fits = screen_each_length(spec, tol, min_run)
            assert astuple(new) == astuple(ref)
            assert calls[0] - before == fits
            total += fits
        assert total > 100  # the screen passed windows on to polyfit

    def test_long_spectrum_is_screened_within_the_cell_cap(self):
        """n = 400 at min_run = 4 has W = 397 * 398 / 2 windows. Screened in
        one pass, padded to 400 columns, they would fill 31.6e6 cells, about
        250 MB per float array. Capped, the peak is the window list, four
        int64 vectors of W entries while it is built (32 W bytes), plus one
        group: three float arrays and a bool mask of at most _SCREEN_CELLS
        cells (25 bytes a cell), and under 16 float vectors of one entry per
        window, at most _SCREEN_CELLS / 4 windows as each is >= 4 wide (32
        bytes a cell)."""
        rng = np.random.default_rng(34)
        n = 400
        alphas = np.cumsum(rng.choice([0.05, 0.125, 0.25], n))
        spec = make_spectrum(alphas, rng.random(n))
        windows = (n - 3) * (n - 2) // 2
        bound = 32 * windows + (25 + 32) * _SCREEN_CELLS
        assert bound < 8 * windows * n / 10  # one uncapped array is 10x it
        tracemalloc.start()
        try:
            rep = detect_segment(spec, 0.02, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert astuple(rep) == astuple(screen_each_length(spec, 0.02, 4)[0])
        assert peak < bound

    @pytest.mark.parametrize("n", [4, 19, 46, 53, 60])
    def test_sweep_sized_spectrum_is_screened_in_one_call(self, n,
                                                           monkeypatch):
        """classify's default min_run, ceil(n / 2), over a spectrum of up to
        60 points, with a _chord_bound that rejects no window: every window
        is screened by one _window_screen call."""
        monkeypatch.setattr(geometry, "_chord_bound",
                            lambda alphas, fs, length, start, tol:
                            (np.zeros(length.size), np.zeros(length.size)))
        calls = count_calls(monkeypatch, "_window_screen")
        rep = classify(sweep_sized_cap(n))
        assert rep.config["min_run"] == max(4, math.ceil(n / 2))
        assert not rep.segment.found  # so every length was screened
        assert calls[0] == 1

    @pytest.mark.parametrize("n", [4, 19, 46, 53, 60])
    def test_sweep_sized_cap_is_bounded_without_a_screen(self, n,
                                                         monkeypatch):
        """The chord bound rejects every window of these caps, so they make
        no _window_screen call, and the report is the one screening each
        length gives."""
        calls = count_calls(monkeypatch, "_window_screen")
        spec = sweep_sized_cap(n)
        rep = classify(spec)
        ref = screen_each_length(spec, rep.config["residual_tol"],
                                 rep.config["min_run"])[0]
        assert astuple(rep.segment) == astuple(ref)
        assert calls[0] == 0

    def test_chord_bound_less_allowance_is_below_polyfit_residual(self):
        """On every window, the chord bound minus its allowance at polyfit's
        own residual rho is at most rho, so a window the bound rejects at
        residual_tol has rho > residual_tol. Lines exact to rounding give
        bounds and residuals of rounding size, where the allowance is
        needed: on some windows the bound passes rho."""
        points = chain(near_lines(35, 60),
                       ((s.alphas, s.fs) for s, _, _ in fuzz_spectra(35, 30)))
        windows = above = 0
        for alphas, fs in points:
            assert np.all(np.diff(alphas) > 0)
            for length, start in _window_groups(fs.size, 4):
                rho = np.array([_line_fit_residual(alphas[i:i + size],
                                                   fs[i:i + size])[1]
                                for size, i in zip(length.tolist(),
                                                   start.tolist())])
                bound, allowance = _chord_bound(alphas, fs, length, start,
                                                rho)
                assert np.all(bound - allowance <= rho)
                windows += rho.size
                above += int(np.sum(bound > rho))
        assert windows > 10_000
        assert above > 0


class TestFragments:
    def test_single_gap(self):
        s = make_spectrum([0.90, 0.95, 1.00, 1.40], [0.3, 0.5, 0.4, 0.2])
        rep = detect_fragments(s, gap_threshold=0.2)
        assert rep.fragments == ((0, 2), (3, 3))
        assert rep.gaps == (pytest.approx(0.40),)
        assert len(rep.isolated_points) == 1
        iso = rep.isolated_points[0]
        assert iso.alpha == 1.40 and not iso.on_axis

    def test_on_axis_isolated_point(self):
        s = make_spectrum([0.9, 0.95, 1.5], [0.4, 0.5, 0.0])
        rep = detect_fragments(s, gap_threshold=0.2)
        assert rep.isolated_points[0].on_axis

    def test_even_spacing_one_fragment(self):
        s = make_spectrum(np.linspace(0.8, 1.2, 9), np.full(9, 0.5))
        assert len(detect_fragments(s, gap_threshold=0.1).fragments) == 1

    def test_infinite_threshold(self):
        s = make_spectrum([0.1, 0.9], [0.2, 0.3])
        assert len(detect_fragments(s, math.inf).fragments) == 1

    def test_vanishing_threshold(self):
        s = make_spectrum([0.1, 0.5, 0.9], [0.2, 0.3, 0.1])
        assert len(detect_fragments(s, 1e-15).fragments) == 3

    def test_none_takes_the_default_threshold(self):
        # eps_alpha 0.1 gives max(1.5 * 0.1, 0.1) = 0.15: one 0.4 gap
        s = make_spectrum([0.9, 1.0, 1.1, 1.5], [0.3, 0.5, 0.4, 0.2], 0.1)
        rep = detect_fragments(s)
        assert rep.gap_threshold == default_gap_threshold(s)
        assert rep.fragments == ((0, 2), (3, 3))
        assert classify(s).config["gap_threshold"] == rep.gap_threshold


class TestClassify:
    def test_crisis_fixture(self):
        rep = classify(cap_with_run(), GeometryConfig(residual_tol=1e-6,
                                                      min_run=5))
        assert rep.regime == "Crisis"
        assert rep.segment.found

    def test_two_fragment_fixture(self):
        s = make_spectrum([0.5, 0.55, 0.6, 1.2, 1.25, 1.3],
                          [0.3, 0.5, 0.3, 0.2, 0.4, 0.2])
        rep = classify(s)
        assert rep.regime == "PostCrisisBiMultifractal"
        assert len(rep.fragmentation.fragments) == 2

    def test_cap_is_precrisis(self):
        alphas = np.arange(0.8, 1.2001, 0.05)
        fs = 1 - 4 * (alphas - 1) ** 2
        rep = classify(make_spectrum(alphas, fs),
                       GeometryConfig(residual_tol=1e-6))
        assert rep.regime == "PreCrisis"

    def test_single_point_indeterminate(self):
        rep = classify(make_spectrum([0.7], [0.0]))
        assert rep.regime == "Indeterminate"

    def test_min_run_below_four_runs_and_reports_four(self):
        s = cap_with_run()
        low = classify(s, GeometryConfig(residual_tol=1e-6, min_run=-3))
        four = classify(s, GeometryConfig(residual_tol=1e-6, min_run=4))
        assert low.config["min_run"] == 4
        assert low.as_dict() == four.as_dict()

    def test_replay_determinism(self):
        s = cap_with_run()
        cfg = GeometryConfig(residual_tol=1e-6, min_run=5)
        assert classify(s, cfg).as_dict() == classify(s, cfg).as_dict()

    def test_postcrisis_iff_multiple_fragments(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            alphas = np.sort(rng.uniform(0.4, 2.0, n))
            if len(np.unique(alphas)) < n:
                continue
            fs = rng.uniform(0.0, 1.0, n)
            rep = classify(make_spectrum(alphas, fs))
            many = len(rep.fragmentation.fragments) >= 2
            assert (rep.regime == "PostCrisisBiMultifractal") == many

    def test_report_json_fields(self):
        import json
        rep = classify(cap_with_run(), GeometryConfig(residual_tol=1e-6,
                                                      min_run=5))
        doc = json.loads(rep.to_json())
        assert doc["regime"] == "Crisis"
        assert set(doc) >= {"regime", "features", "segment",
                            "fragmentation", "config"}


@pytest.mark.parametrize("fields, message", [
    ({"min_run": 4.5}, "min_run must be an integer, got 4.5"),
    ({"min_run": 5.0}, "min_run must be an integer, got 5.0"),
    ({"min_run": True}, "min_run must be an integer, got True"),
    ({"min_run": "5"}, "min_run must be an integer, got '5'"),
    ({"gap_threshold": True}, "gap_threshold must be a real number, got True"),
    ({"gap_threshold": "0.2"},
     "gap_threshold must be a real number, got '0.2'"),
    ({"residual_tol": "0.2"},
     "residual_tol must be a real number, got '0.2'"),
    ({"tol": False}, "tol must be a real number, got False"),
], ids=["min_run-float", "min_run-whole-float", "min_run-bool", "min_run-str",
        "gap-bool", "gap-str", "residual_tol-str", "tol-bool"])
def test_config_refuses_a_field_it_cannot_use(fields, message):
    with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
        GeometryConfig(**fields)


def test_config_holds_numpy_numbers_as_python_numbers():
    # to_json writes only Python numbers: np.int64 and np.float32 are not
    cfg = GeometryConfig(residual_tol=np.float32(0.5), min_run=np.int64(5),
                         gap_threshold=np.float32(0.25), tol=np.int64(1))
    assert [type(v) for v in astuple(cfg)] == [float, int, float, float]
    report = classify(cap_with_run(), cfg)
    assert json.loads(report.to_json())["config"] == {
        "residual_tol": 0.5, "min_run": 5, "gap_threshold": 0.25, "tol": 1.0}


def test_kernel_defaults_are_geometry_configs():
    """cap_shape_check and detect_segment called alone use the tolerances
    classify uses."""
    default = GeometryConfig()
    spec = make_spectrum([0.9, 1.0, 1.1, 1.2], [0.5, 0.4, 0.5, 0.3])
    assert cap_shape_check(spec) == cap_shape_check(spec, default.tol)
    assert cap_shape_check(spec)  # a 0.1 dip is within 0.2
    assert detect_segment(spec) == detect_segment(spec, default.residual_tol)


# --- the report before it became its dataclasses --------------------------

def reference_fragments(spectrum, gap_threshold):
    """detect_fragments before its split was vectorised: one pass over the
    spacings, closing a fragment at each one above gap_threshold."""
    alphas, fs = spectrum.alphas, spectrum.fs
    n = alphas.size
    frags = []
    start = 0
    gaps = []
    for k in range(1, n):
        spacing = alphas[k] - alphas[k - 1]
        if spacing > gap_threshold:
            frags.append((start, k - 1))
            gaps.append(float(spacing))
            start = k
    frags.append((start, n - 1))
    isolated = tuple(
        IsolatedPoint(index=i, alpha=float(alphas[i]), f=float(fs[i]),
                      on_axis=bool(fs[i] <= 1e-12))
        for i, j in frags if i == j)
    return FragmentReport(fragments=tuple(frags), gaps=tuple(gaps),
                          isolated_points=isolated,
                          gap_threshold=gap_threshold)


def reference_cap(spectrum, tol):
    """cap_shape_check before its valleys were one array comparison."""
    fs = spectrum.fs
    n = fs.size
    return not [j for j in range(1, n - 1)
                if fs[j] < fs[j - 1] - tol and fs[j] < fs[j + 1] - tol]


def reference_report(spectrum, config):
    """classify and as_dict before the report held exactly what it prints:
    the hand-built mapping and resolved thresholds, over the reference
    kernels."""
    n = len(spectrum)
    min_run = max(4, config.min_run if config.min_run is not None
                  else math.ceil(n / 2))
    gap_threshold = (default_gap_threshold(spectrum)
                     if config.gap_threshold is None
                     else config.gap_threshold)
    frag = reference_fragments(spectrum, gap_threshold)
    seg = (detect_segment(spectrum, config.residual_tol, min_run)
           if n >= min_run else SegmentReport(found=False))
    cap = reference_cap(spectrum, config.tol) if n >= 3 else None
    if len(frag.fragments) >= 2:
        regime = "PostCrisisBiMultifractal"
    elif seg.found:
        regime = "Crisis"
    elif cap:
        regime = "PreCrisis"
    else:
        regime = "Indeterminate"
    return {
        "regime": regime,
        "features": asdict(features(spectrum)),
        "segment": asdict(seg),
        "fragmentation": asdict(frag),
        "cap_shaped": cap,
        "config": {"residual_tol": config.residual_tol, "min_run": min_run,
                   "gap_threshold": frag.gap_threshold, "tol": config.tol},
    }


def reference_json(d):
    """The strict-JSON text the reference report was written as."""
    for part in (d["fragmentation"], d["config"]):
        if math.isinf(part["gap_threshold"]):
            part["gap_threshold"] = None
    return json.dumps(d, indent=2, allow_nan=False)


def fuzz_reports(seed, count):
    """Spectra with n from 1 to 12 (1 and 2 often), alphas on a dyadic
    grid so spacings tie exactly with a 0.25 or 0.5 threshold, f on a
    grid so a dip ties exactly with a 0.25 tolerance, lone points on the
    axis (f = 0 or 1e-12) and just off it (2e-12); and a config to
    classify each with. An n of 0, which no Spectrum holds, is drawn and
    skipped, so the other cases keep their draws."""
    rng = np.random.default_rng(seed)
    levels = [0.0, 1e-12, 2e-12, 0.25, 0.5, 0.75, 1.0]
    for _ in range(count):
        n = int(rng.choice([0, 1, 2, rng.integers(3, 13)]))
        if rng.random() < 0.7:
            steps = rng.choice([0.125, 0.25, 0.5, 0.75], n)
        else:
            steps = rng.uniform(0.01, 0.8, n)
        alphas = float(rng.choice([0.0, 0.5, 10.0])) + np.cumsum(steps)
        fs = (rng.choice(levels, n) if rng.random() < 0.7
              else rng.random(n))
        eps_alpha = float(rng.choice([0.0, 0.1]))
        cfg = GeometryConfig(
            residual_tol=float(rng.choice([0.0, 1e-12, 0.02, 0.3])),
            min_run=[None, 1, 4, 5, 9][rng.integers(5)],
            gap_threshold=[None, math.inf, 1e-15, 0.25, 0.5,
                           float(rng.uniform(0.05, 1))][rng.integers(6)],
            tol=float(rng.choice([0.0, 1e-15, 0.2, 0.25])))
        if n:
            yield make_spectrum(alphas, fs, eps_alpha), cfg


class TestAgainstReference:
    def test_fragments_match_the_loop(self):
        cut = lone = 0
        for spec, cfg in fuzz_reports(41, 3000):
            gap = (default_gap_threshold(spec) if cfg.gap_threshold is None
                   else cfg.gap_threshold)
            new = detect_fragments(spec, cfg.gap_threshold)
            assert new == reference_fragments(spec, gap)
            assert json.dumps(asdict(new)) == json.dumps(
                asdict(reference_fragments(spec, gap)))
            cut += len(new.fragments) >= 2
            lone += any(p.on_axis for p in new.isolated_points)
        assert cut > 500 and lone > 100

    def test_cap_matches_the_comprehension(self):
        rejected = 0
        for spec, cfg in fuzz_reports(42, 3000):
            if len(spec) < 3:
                with pytest.raises(MfkError, match="cap test needs >= 3 "
                                   f"points, got {len(spec)}") as exc:
                    cap_shape_check(spec, cfg.tol)
                assert exc.value.exit_code == 1
                continue
            new = cap_shape_check(spec, cfg.tol)
            assert type(new) is bool
            assert new == reference_cap(spec, cfg.tol)
            rejected += not new
        assert rejected > 500

    def test_report_matches_the_mapping(self):
        regimes = set()
        for spec, cfg in fuzz_reports(43, 3000):
            rep = classify(spec, cfg)
            ref = reference_report(spec, cfg)
            assert rep.as_dict() == ref
            assert rep.to_json() == reference_json(ref)
            regimes.add(rep.regime)
        assert regimes == {"PreCrisis", "Crisis", "PostCrisisBiMultifractal",
                           "Indeterminate"}


def test_to_json_leaves_the_report_unchanged():
    """One point: the thresholds are infinite and written as null, in the
    text only."""
    rep = classify(make_spectrum([0.7], [0.0]))
    before = copy.deepcopy(rep.as_dict())
    rep.to_json()
    assert rep.as_dict() == before
    assert rep.config["gap_threshold"] == math.inf


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name,spectrum,config", [
    ("crisis", cap_with_run(), GeometryConfig(residual_tol=1e-6, min_run=5)),
    ("two_fragments", make_spectrum([0.5, 0.55, 0.6, 0.65, 1.3],
                                    [0.3, 0.5, 0.45, 0.3, 0.0]),
     GeometryConfig()),
    ("one_point", make_spectrum([0.7], [0.0]), GeometryConfig()),
])
def test_report_json_golden_bytes(name, spectrum, config):
    """The report's text, key order included, is what `mfk classify`
    wrote before the report was its dataclasses."""
    expected = (GOLDEN / f"report_{name}.json").read_text()
    assert classify(spectrum, config).to_json() + "\n" == expected
