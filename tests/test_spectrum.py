import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mfkappa import measure
from mfkappa.errors import (BadBoxCount, FormatError, MfkError,
                            SizingViolation, SpecError)
from mfkappa.geometry import classify
from mfkappa.measure import CantorDust, cover
from mfkappa.oracles import (SelfSimilarSpec, gen_selfsimilar, gen_uniform,
                             oracle_spectrum)
from mfkappa.spectrum import (SizingStatus, Spectrum, alpha_field, auto_size,
                              estimate, histogram_spectrum,
                              read_spectrum_csv, sweep_boxes,
                              validate_sizing, write_spectrum_csv)
from mfkappa.spectrum import format_spectrum_csv
from mfkappa.svgplot import render_spectra_svg


def field_from(alphas, B):
    return np.asarray(alphas, dtype=float), B


class TestAlphaField:
    def test_inverse_square_box(self):
        dust = CantorDust(np.concatenate([np.full(1, 0.005),
                                          np.full(99, 0.755)]))
        m = cover(dust, 100)
        fld = alpha_field(m)
        # box holding 1/100 of the mass at box length 1/100
        assert fld[0] == pytest.approx(1.0, abs=1e-12)

    def test_alpha_two_for_mu_fourth_power(self):
        # mu = 1e-4 at eps_l = 1e-2
        dust = CantorDust(np.concatenate([np.full(1, 0.005),
                                          np.full(9999, 0.755)]))
        fld = alpha_field(cover(dust, 100))
        assert fld[0] == pytest.approx(2.0, abs=1e-12)

    def test_full_box_has_alpha_zero(self):
        fld = alpha_field(cover(CantorDust(np.array([0.345])), 100))
        assert fld.tolist() == [0.0]


class TestHistogram:
    def test_uniform_single_point(self):
        fld = field_from(np.full(100, 1.0), 100)
        spec = histogram_spectrum(*fld, 9)
        assert spec.alphas.tolist() == [1.0] and spec.fs.tolist() == [1.0]

    def test_single_box_f_zero(self):
        fld = field_from([0.7], 100)
        spec = histogram_spectrum(*fld, 9)
        assert spec.alphas.tolist() == [0.7] and spec.fs.tolist() == [0.0]

    def test_ten_boxes_is_half(self):
        fld = field_from(np.full(10, 0.8), 100)
        spec = histogram_spectrum(*fld, 5)
        (alpha,), (f,) = spec.alphas.tolist(), spec.fs.tolist()
        assert f == pytest.approx(0.5, abs=1e-12)

    def test_bin_count_past_the_array_length_refused(self):
        A = int(np.iinfo(np.intp).max) + 1
        with pytest.raises(MfkError, match=f"bin count {A} exceeds the "
                           "largest array length") as exc:
            histogram_spectrum(*field_from([0.7, 0.9], 100), A)
        assert exc.value.exit_code == 2

    @pytest.mark.parametrize("B", [0, 1])
    def test_box_count_below_2_refused(self, B):
        # B = 0 escaped from math.log, and B = 1 as a bad spectrum point
        with pytest.raises(BadBoxCount, match=f"^box count must be >= 2, "
                           f"got {B}$") as exc:
            histogram_spectrum(*field_from([0.7, 0.9], B), 9)
        assert exc.value.exit_code == 2

    def test_empty_field_refused(self):
        with pytest.raises(MfkError, match="alpha field is empty") as exc:
            histogram_spectrum(*field_from([], 100), 9)
        assert exc.value.exit_code == 1

    @pytest.mark.parametrize("alphas", [[0.5, np.nan], [0.5, np.inf],
                                        [-np.inf, 0.5], [-1e308, 1e308]],
                             ids=["nan", "inf", "-inf", "span-overflows"])
    def test_field_with_no_finite_bin_width_refused(self, alphas):
        """Refused before any alpha is cast to a bin, so no NaN or inf is
        cast to a negative one; the refusal is the Spectrum's."""
        with pytest.raises(FormatError, match="^epsilon_alpha must be "
                           "finite and >= 0, got (nan|inf)$"):
            histogram_spectrum(*field_from(alphas, 100), 5)

    def test_span_under_one_bin_width_is_one_point(self):
        # the span of 2 subnormal steps over 5 bins rounds to a width of 0
        spec = histogram_spectrum(*field_from([0.0, 1e-323, 5e-324], 100), 5)
        assert spec.alphas.tolist() == [0.0] and spec.epsilon_alpha == 0.0
        assert spec.fs.tolist() == [math.log(3) / math.log(100)]

    def test_bin_recovery(self):
        rng = np.random.default_rng(3)
        fld = field_from(rng.uniform(0.5, 1.5, size=60), 100)
        spec = histogram_spectrum(*fld, 7)
        total = sum(round(100 ** f) for f in spec.fs)
        assert total == 60

    def test_alphas_strictly_increasing(self):
        rng = np.random.default_rng(4)
        fld = field_from(rng.uniform(0.5, 1.5, size=60), 100)
        spec = histogram_spectrum(*fld, 7)
        assert np.all(np.diff(spec.alphas) > 0)


class TestSizing:
    @pytest.mark.parametrize("S,B,A,status", [
        (10_000, 100, 9, SizingStatus.OK),
        (10_000, 200, 9, SizingStatus.WARNING),
        (1_000_000, 1000, 31, SizingStatus.OK),
        (10_000, 5000, 9, SizingStatus.VIOLATION),
    ])
    def test_verdicts(self, S, B, A, status):
        assert validate_sizing(S, B, A)[0] is status

    def test_violation_names_inequality(self):
        _, notes = validate_sizing(10_000, 5000, 9)
        assert any("B^2" in m for m in notes)
        status, notes = validate_sizing(10_000, 100, 50)
        assert status is SizingStatus.VIOLATION
        assert any("A^2" in m for m in notes)

    def test_refuses_a_count_it_cannot_size(self):
        # refused before the inequalities, which a bin count of 0 passes
        with pytest.raises(SpecError, match="bin count must be >= 1, got 0"):
            validate_sizing(10_000, 100, 0)
        with pytest.raises(BadBoxCount,
                           match="box count must be >= 2, got 1"):
            validate_sizing(10_000, 1, 1)

    @pytest.mark.parametrize("S", [-5, 0])
    def test_refuses_a_sample_size_below_1(self, S):
        # S = -5 escaped from math.sqrt
        with pytest.raises(SpecError, match=f"^sample size must be >= 1, "
                           f"got {S}$") as exc:
            validate_sizing(S, 10, 3)
        assert exc.value.exit_code == 2

    def test_auto_size(self):
        assert auto_size(10_000) == (100, 9)
        assert auto_size(16) == (4, 2)  # A <= sqrt(B), so B >= A^2 holds
        assert auto_size(1_000_000) == (1000, 30)

    def test_auto_size_sizes_ok(self):
        for S in range(16, 300_001):
            B, A = auto_size(S)
            assert validate_sizing(S, B, A)[0] is SizingStatus.OK, S

    def test_auto_size_too_small(self):
        with pytest.raises(MfkError, match="auto-sizing needs S >= 16, "
                           "got 15") as exc:
            auto_size(15)
        assert exc.value.exit_code == 1


class TestEstimate:
    def test_uniform_pipeline(self):
        spec = estimate(gen_uniform(10_000), 100, 9)
        assert spec.alphas.tolist() == [1.0] and spec.fs.tolist() == [1.0]
        assert spec.sizing is SizingStatus.OK

    def test_single_point_dust(self):
        spec = estimate(CantorDust(np.array([0.5])), 100, 9, force=True)
        (alpha,), (f,) = spec.alphas.tolist(), spec.fs.tolist()
        assert alpha == 0.0 and f == 0.0

    def test_violation_refused_without_force(self):
        with pytest.raises(SizingViolation):
            estimate(CantorDust(np.array([0.5])), 100, 9)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        pts = rng.random(2000)
        s1 = estimate(CantorDust(pts), 40, 5)
        s2 = estimate(CantorDust(rng.permutation(pts)), 40, 5)
        assert np.array_equal(s1.alphas, s2.alphas)
        assert np.array_equal(s1.fs, s2.fs)

    def test_duplicating_points_leaves_spectrum_unchanged(self):
        rng = np.random.default_rng(12)
        pts = rng.random(1500)
        s1 = estimate(CantorDust(pts), 30, 5)
        s2 = estimate(CantorDust(np.concatenate([pts, pts])), 30, 5)
        assert np.array_equal(s1.alphas, s2.alphas)
        assert np.array_equal(s1.fs, s2.fs)

    def test_f_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            pts = rng.random(rng.integers(10, 800))
            spec = estimate(CantorDust(pts), int(rng.integers(2, 40)), 5,
                            force=True)
            assert np.all(spec.fs >= 0.0)
            assert np.all(spec.fs <= 1.0 + 1e-12)


    @pytest.mark.parametrize("B, message", [
        ([100], "box count must be an integer, got [100]"),
        (np.array([100]), "box count must be an integer, got array([100])"),
        (100.0, "box count must be an integer, got 100.0"),
        (True, "box count must be an integer, got True"),
        (1, "box count must be >= 2, got 1"),
        (10 ** 23, f"box count {10 ** 23} exceeds the largest array "
                   f"length, {measure._MAX_COUNT}"),
    ], ids=["list", "array", "float", "bool", "1", "past-the-array-length"])
    def test_refuses_what_is_not_a_box_count(self, B, message):
        with pytest.raises(BadBoxCount) as info:
            estimate(gen_uniform(10_000), B, 9)
        assert str(info.value) == message


def composed(dust, B, A):
    """The spectrum at B built stage by stage, apart from sweep_boxes: cover,
    alpha field and histogram, with S and validate_sizing's verdict."""
    status, notes = validate_sizing(dust.sample_size, B, A)
    spec = histogram_spectrum(alpha_field(cover(dust, B)), B, A)
    return replace(spec, S=dust.sample_size, sizing=status,
                   sizing_notes=notes)


def assert_same_spectrum(spec, ref):
    assert spec.alphas.tobytes() == ref.alphas.tobytes()
    assert spec.fs.tobytes() == ref.fs.tobytes()
    assert (spec.S, spec.B, spec.A, spec.epsilon_alpha, spec.sizing,
            spec.sizing_notes) == (ref.S, ref.B, ref.A, ref.epsilon_alpha,
                                   ref.sizing, ref.sizing_notes)


# the box counts of the sweep-1e7 benchmark: 11 from A^2 to 2 sqrt(S)
SWEEP_1E7_BOXES = [3025, 3256, 3505, 3774, 4062, 4373, 4708, 5068, 5456,
                   5874, 6324]


class TestSweep:
    def test_singleton_equals_estimate(self):
        # against the stages composed by hand: estimate is this very sweep
        dust = gen_uniform(10_000, "random", seed=2)
        entries = sweep_boxes(dust, [100], 9)
        assert len(entries) == 1
        assert_same_spectrum(entries[0].spectrum, composed(dust, 100, 9))
        assert_same_spectrum(estimate(dust, 100, 9), composed(dust, 100, 9))

    @pytest.mark.parametrize("B_list", [[100, 100.0], [100.0, 100]],
                             ids=["int-first", "float-first"])
    def test_box_counts_are_checked_before_equal_ones_merge(self, B_list):
        entries = sweep_boxes(gen_uniform(10_000), B_list, 3)
        by_type = {type(e.B): e for e in entries}
        assert by_type[int].spectrum is not None
        assert by_type[int].error is None
        assert by_type[float].spectrum is None
        assert isinstance(by_type[float].error, BadBoxCount)
        assert str(by_type[float].error) == \
            "box count must be an integer, got 100.0"

    def test_unhashable_box_count_is_refused(self):
        entries = sweep_boxes(gen_uniform(10_000), [[100], 100], 3)
        assert entries[0].spectrum is None
        assert isinstance(entries[0].error, BadBoxCount)
        assert entries[1].spectrum is not None

    def test_bad_entry_does_not_abort(self):
        dust = gen_uniform(10_000)
        entries = sweep_boxes(dust, [5000, 100], 9)
        assert entries[0].spectrum is None
        assert isinstance(entries[0].error, SizingViolation)
        assert entries[1].spectrum is not None

    def test_box_count_past_the_array_length_is_refused(self):
        entries = sweep_boxes(gen_uniform(10_000), [10 ** 23, 100], 9,
                              force=True)
        assert entries[0].spectrum is None
        assert isinstance(entries[0].error, BadBoxCount)
        assert entries[1].spectrum is not None

    def test_box_count_below_2_is_refused_before_its_sizing(self):
        entries = sweep_boxes(gen_uniform(10_000), [1, 100], 9)
        assert entries[0].spectrum is None
        assert isinstance(entries[0].error, BadBoxCount)
        assert str(entries[0].error) == "box count must be >= 2, got 1"
        assert entries[1].spectrum is not None

    def test_order_follows_b_list(self):
        dust = gen_uniform(10_000)
        entries = sweep_boxes(dust, [150, 100], 9)
        assert [e.B for e in entries] == [150, 100]

    def test_programming_error_propagates(self, monkeypatch):
        # an error raised while the sized box counts are covered is not a
        # refusal of one B, so it is not recorded in an entry
        def broken(*args, **kwargs):
            raise TypeError("not a sizing failure")

        monkeypatch.setattr("mfkappa.spectrum.cover", broken)
        with pytest.raises(TypeError):
            sweep_boxes(gen_uniform(10_000), [5000, 100], 9)

    @pytest.mark.parametrize("make", [
        lambda: cascade(2**14, 8),
        lambda: gen_uniform(2**14, "random", seed=6),
    ], ids=["runs-kept", "searched"])
    def test_spectrum_cover_is_called_once_per_sized_box_count(
            self, monkeypatch, make):
        # spectrum.cover is the binding a tracer wraps to time the covers
        # of a sweep: each distinct B that sizes is one call through it,
        # and a refused B is none
        dust, calls = make(), []

        def counted(dust, B):
            calls.append(B)
            return cover(dust, B)

        monkeypatch.setattr("mfkappa.spectrum.cover", counted)
        B_list = [*SWEEP_1E7_BOXES, SWEEP_1E7_BOXES[0], 1]
        entries = sweep_boxes(dust, B_list, 3, force=True)
        assert calls == SWEEP_1E7_BOXES
        assert [e.spectrum is None for e in entries] == [False] * 12 + [True]

    def test_each_spectrum_is_built_and_checked_once(self, monkeypatch):
        """One Spectrum check per distinct B that sizes (Ok, Warning-band
        and a forced Violation), none for a repeat or a refusal, and each
        entry the spectrum its stages compose."""
        dust = gen_uniform(10_000, "random", seed=5)
        checked = []
        checks = Spectrum.__post_init__

        def counted(self):
            checked.append(self.B)
            checks(self)

        monkeypatch.setattr(Spectrum, "__post_init__", counted)
        B_list = [100, 150, 5000, 100, 1]
        entries = sweep_boxes(dust, B_list, 3, force=True)
        assert checked == [100, 150, 5000]
        monkeypatch.undo()
        assert [e.spectrum.sizing for e in entries[:3]] == [
            SizingStatus.OK, SizingStatus.WARNING, SizingStatus.VIOLATION]
        assert entries[3].spectrum is entries[0].spectrum
        assert isinstance(entries[4].error, BadBoxCount)
        for e in entries[:4]:
            assert_same_spectrum(e.spectrum, composed(dust, e.B, 3))

    def test_peak_memory_follows_the_largest_box_count(self):
        """A sweep of four box counts near 2^20 takes at most 1.5 times
        the peak memory of one estimate at the largest: each B is covered,
        binned and freed on its own. Covering them all at once would take
        about 4 times; measured, the sweep takes 1.0 times. At most one
        cover's box counts, its mu and its occupied mask (17 bytes a box),
        or a cover's counts and the next B's (16 bytes a box), are held at
        once, beside the dust's 1000 values and their keys and alphas."""
        dust = CantorDust(np.random.default_rng(0).random(1000))
        B_list = [2**20 + 1, 2**20, 2**20 - 1, 2**20 - 2]
        peaks = []
        for run in (lambda: estimate(dust, max(B_list), 3, force=True),
                    lambda: sweep_boxes(dust, B_list, 3, force=True)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]
        assert peaks[1] <= 17 * max(B_list) + 64 * 1024


@pytest.mark.parametrize("make", [
    lambda: gen_uniform(10_000, "random", seed=1),
    lambda: cover(gen_uniform(10_000, "random", seed=1), 100),
    lambda: estimate(gen_uniform(10_000, "random", seed=1), 100, 9),
    lambda: oracle_spectrum(SelfSimilarSpec((0.3, 0.7), (0.5, 0.5), 8, 100),
                            [-1.0, 0.0, 1.0]),
], ids=["CantorDust", "NaturalMeasure", "Spectrum", "OracleSpectrum"])
def test_array_holders_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and hash(a) != hash(b)


def test_csv_roundtrip(tmp_path):
    spec = estimate(gen_uniform(10_000, "random", 5), 100, 9)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(spec, path)
    back = read_spectrum_csv(path)
    assert np.array_equal(back.alphas, spec.alphas)
    assert np.array_equal(back.fs, spec.fs)
    assert back.B == 100 and back.A == 9
    assert back.S == 10_000
    assert back.sizing is SizingStatus.OK


def test_csv_roundtrip_keeps_sizing_notes(tmp_path):
    # S=1e4 with B=150 lies in the Warning band sqrt(S) < B <= 2 sqrt(S)
    spec = estimate(gen_uniform(10_000, "random", 5), 150, 9)
    assert spec.sizing is SizingStatus.WARNING
    assert spec.sizing_notes
    path = tmp_path / "spec.csv"
    write_spectrum_csv(spec, path)
    back = read_spectrum_csv(path)
    for name in ("S", "B", "A", "epsilon_alpha", "sizing", "sizing_notes"):
        assert getattr(back, name) == getattr(spec, name)


ONE = np.array([1.0])
MAGNITUDE = (r"spectrum points must be 0 or of magnitude from 2\*\*-450 "
             r"to 2\*\*450")


def test_spectrum_takes_sizing_by_its_value():
    spec = Spectrum(ONE, ONE, sizing="Warning", sizing_notes=["a note"])
    assert spec.sizing is SizingStatus.WARNING
    assert spec.sizing_notes == ("a note",)
    assert "# sizing=Warning\n# sizing_note=a note\n" in \
        format_spectrum_csv(spec)


@pytest.mark.parametrize("fields,message", [
    ({"sizing": "Bogus"}, "sizing must be Ok, Warning or Violation"),
    ({"sizing_notes": "a note"}, "sizing_notes must be a sequence"),
    ({"alphas": np.array([1.0, 2.0, 3.0])}, "1-D arrays of one length"),
    ({"alphas": np.ones((1, 1)), "fs": np.ones((1, 1))},
     "1-D arrays of one length"),
    ({"alphas": np.array(1.0), "fs": np.array(1.0)},
     "1-D arrays of one length"),
    ({"alphas": [1.0], "fs": [1.0]}, "1-D arrays of one length"),
    ({"S": True}, "S must be an integer, got True"),
    ({"B": False}, "B must be an integer, got False"),
    ({"A": True}, "A must be an integer, got True"),
    ({"epsilon_alpha": True}, "epsilon_alpha must be a real number, got True"),
    ({"epsilon_alpha": "0.1"},
     "epsilon_alpha must be a real number, got '0.1'"),
    ({"epsilon_alpha": None}, "epsilon_alpha must be a real number, got None"),
    # the span overflows, a plot's 5% margins on each side would, and f
    # lies far below 0: each is refused by the magnitude rule
    ({"alphas": np.array([-1e308, 1e308]), "fs": np.array([0.1, 0.2])},
     MAGNITUDE),
    ({"alphas": np.array([-0.85e308, 0.85e308]), "fs": np.array([0.1, 0.2])},
     MAGNITUDE),
    ({"alphas": np.array([0.5]), "fs": np.array([-1e308])}, MAGNITUDE),
    # a NaN is not an increasing alpha either, but is named a bad value
    ({"alphas": np.array([0.5, np.nan]), "fs": np.array([0.1, 0.2])},
     MAGNITUDE),
    ({"alphas": np.array([0.5, 0.5]), "fs": np.array([0.1, 0.2])},
     "strictly increasing alphas"),
], ids=["sizing", "notes-as-a-string", "lengths", "2-D", "0-D", "lists",
        "S-bool", "B-bool", "A-bool", "epsilon_alpha-bool",
        "epsilon_alpha-str", "epsilon_alpha-None", "alpha-span-overflows",
        "plot-margins-overflow", "f-far-below-0", "nan-alpha",
        "equal-alphas"])
def test_spectrum_refuses_fields_it_cannot_hold(fields, message):
    with pytest.raises(FormatError, match=message):
        Spectrum(**{"alphas": ONE, "fs": ONE, **fields})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("array", [
    np.array([False, True]), np.array([0.5 + 0j, 1.0]),
    np.array([0.5, 1.0], dtype=object),
], ids=["bool", "complex", "object"])
@pytest.mark.parametrize("field", ["alphas", "fs"])
def test_spectrum_refuses_arrays_of_no_real_dtype(field, array):
    """A bool array would reach classify's line fits, which cannot subtract
    bools; a complex or object array holds no real point."""
    with pytest.raises(FormatError, match="must be integer or float arrays"):
        Spectrum(**{"alphas": np.array([0.5, 1.0]),
                    "fs": np.array([0.5, 1.0]), field: array})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float32,
                                   np.float64],
                         ids=["int64", "uint8", "float32", "float64"])
def test_spectrum_holds_integer_and_float_arrays_as_float64(dtype):
    """Each is held as the float64 array it equals, a float64 one as given,
    before the range check, whose bound 2**450 a float32 cannot hold;
    classify reports on it as on float64 points."""
    alphas = np.array([1, 2, 3, 4, 5], dtype=dtype)
    fs = np.array([0, 1, 2, 3, 2], dtype=dtype)
    spec = Spectrum(alphas, fs)
    assert spec.alphas.dtype == spec.fs.dtype == np.float64
    assert spec.alphas.tolist() == alphas.tolist()
    assert spec.fs.tolist() == fs.tolist()
    if dtype is np.float64:
        assert spec.alphas is alphas and spec.fs is fs
    ref = Spectrum(alphas.astype(float), fs.astype(float))
    assert classify(spec).to_json() == classify(ref).to_json()


def test_point_range_keeps_the_line_fits_squares_normal_and_finite():
    """classify's line fits (geometry._window_screen and np.polyfit) sum
    squares of differences of alphas over a window. A Spectrum holds 0 and
    magnitudes from lo = 2**-450 to hi = 2**450 in alphas and fs, and
    refuses the rest, because:
    - two distinct values of that range differ by at least the float
      spacing at lo, 2**-502, and a window's centred sum of squares is at
      least half its span squared, which is then a normal float with 2**17
      to spare for rounding;
    - the widest difference, 2 * hi, squared and summed over 2**100 points
      is finite.
    Alphas of 1e-320 to 5.6e-171, whose squares underflow, and of 1e160,
    whose squares overflow, lie outside. No estimated spectrum comes near
    either end: a nonzero alpha is at least about 1/(S ln B), and a
    nonzero f at least ln 2 / ln B."""
    tiny, big = np.finfo(float).tiny, np.finfo(float).max
    lo, hi = 2.0 ** -450, 2.0 ** 450
    assert np.spacing(lo) ** 2 / 2 >= tiny * 2.0 ** 17
    assert (2 * hi) ** 2 * 2.0 ** 100 < big
    for x in (0.0, -0.0, lo, -lo, hi, -hi):
        Spectrum(np.array([x]), ONE)
        Spectrum(ONE, np.array([x]))
    for x in (np.nextafter(lo, 0.0), -np.nextafter(lo, 0.0),
              np.nextafter(hi, np.inf), 1e-320, 5.635350551177872e-171,
              1e160, np.nan, np.inf, -np.inf):
        for a, f in ((np.array([x]), ONE), (ONE, np.array([x]))):
            with pytest.raises(FormatError, match=MAGNITUDE):
                Spectrum(a, f)


@pytest.mark.parametrize("eps_a", [np.float64(0.1), np.float32(0.5), 1],
                         ids=["float64", "float32", "int"])
def test_epsilon_alpha_is_held_as_a_float(eps_a, tmp_path):
    """A numpy or integer bin width is held as the float it equals, so the
    CSV header holds a number that read_spectrum_csv reads back."""
    spec = Spectrum(ONE, ONE, epsilon_alpha=eps_a)
    assert type(spec.epsilon_alpha) is float
    assert spec.epsilon_alpha == float(eps_a)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(spec, path)
    assert read_spectrum_csv(path).epsilon_alpha == float(eps_a)


@st.composite
def edge_dusts(draw):
    """A box count B and a dust drawn from box edges k/B, the segment's ends
    and arbitrary reals, with repeats, so points share boxes and edges."""
    B = draw(st.integers(2, 64))
    values = st.one_of(st.integers(0, B).map(lambda k: k / B),
                       st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    pool = draw(st.lists(values, min_size=1, max_size=30))
    points = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=300))
    return CantorDust(np.array(points)), B


def bincount_cover(dust, B):
    """The keyed kernel cover replaced: every point keyed, then counted."""
    idx = (dust.points * B).astype(np.int64)
    np.clip(idx, 0, B - 1, out=idx)
    return np.bincount(idx, minlength=B)


def assert_cover_matches_bincount(dust, B_list):
    """cover at each B counts what bincount_cover counts."""
    for B in B_list:
        expected = bincount_cover(dust, B)
        counts = cover(dust, B).counts
        assert counts.dtype == expected.dtype
        assert np.array_equal(counts, expected), B


def swept(B):
    """B in a sweep that repeats it, is unsorted and holds B = 2."""
    return [B, 1000, 2, 7, 64, B]


@given(edge_dusts(), st.lists(st.integers(2, 64), max_size=6))
def test_cover_matches_bincount_on_edge_dusts(dust_and_B, others):
    dust, B = dust_and_B
    assert_cover_matches_bincount(dust, [B, *others, B])


@pytest.mark.parametrize("points, B", [
    ([0.5], 2),                      # S = 1
    ([0.3] * 7, 10),                 # all points equal
    ([1.0] * 5, 4),                  # all points at the closed end
    ([0.0] * 3 + [1.0] * 3, 1000),   # B > S: the forced path
    (np.arange(4) / 17, 1000),
    ([-0.0, 0.0, 1.0], 2),           # signed zeros and the closed end
], ids=["S-1", "all-equal", "all-at-one", "ends-B-gt-S", "edges-B-gt-S",
        "signed-zeros"])
def test_cover_matches_bincount_on_degenerate_dusts(points, B):
    assert_cover_matches_bincount(CantorDust(np.array(points, float)),
                                  swept(B))


@pytest.mark.parametrize("B", [2, 3, 7, 10, 64, 1000])
def test_cover_matches_bincount_an_ulp_off_every_edge(B):
    # an ulp off every edge of every B in the sweep
    edges = np.concatenate([np.arange(b + 1) / b for b in swept(B)])
    points = np.concatenate([edges, np.nextafter(edges, -1.0),
                             np.nextafter(edges, 2.0)])
    dust = CantorDust(np.clip(points, 0.0, 1.0))
    assert_cover_matches_bincount(dust, swept(B))


@pytest.mark.parametrize("B", [2, 81, 1000, 2049])
def test_cover_matches_bincount_at_large_S(B):
    rng = np.random.default_rng(B)
    dust = CantorDust(rng.random(2**20 + 3) ** 2)  # S not a power of two
    assert_cover_matches_bincount(dust, swept(B))


def run_starts(points):
    """The start of each run of bit-equal points."""
    bits = points.view(np.int64)
    return np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))


def assert_runs_kept(dust, kept):
    """The dust holds its runs of bit-equal points, each value once with
    its run's length as its count, so cover keys each run once, or holds no
    counts, so cover keys every point."""
    if kept:
        points = dust.points
        starts = run_starts(points)
        assert np.array_equal(dust.values.view(np.int64),
                              points[starts].view(np.int64))
        assert np.array_equal(dust.counts, np.diff(starts,
                                                   append=points.size))
    else:
        assert dust.counts is None


def cascade(S, depth, seed=3):
    return gen_selfsimilar(SelfSimilarSpec((0.3, 0.7), (0.5, 0.5), depth, S,
                                           seed))


@pytest.mark.parametrize("B", [2, 81, 1000, 2049])
def test_run_keyed_cover_matches_bincount_on_a_cascade(B):
    dust = cascade(2**20, 13)
    assert_runs_kept(dust, True)
    assert_cover_matches_bincount(dust, swept(B))


@pytest.mark.parametrize("extra, kept", [(0, True), (1, False)],
                         ids=["at-the-cap", "one-run-past-it"])
@pytest.mark.parametrize("B", [3, 1000, 4099])
def test_both_kernels_match_bincount_at_the_runs_cap(extra, kept, B):
    """S spans four order-check chunks, and one run starts on a chunk's
    first point; the dust has S // _RUN_SHARE runs, or one more."""
    C = measure._CHUNK_LINES
    S = 3 * C + 5
    runs = S // measure._RUN_SHARE + extra
    rng = np.random.default_rng(runs)
    inner = rng.choice(np.arange(1, S - 1), runs - 2, replace=False)
    inner += inner >= C  # every start but 0 and C, drawn once
    cuts = np.sort(np.concatenate(([0, C, S], inner)))
    values = np.sort(rng.choice(2**40, runs, replace=False) / 2**40)
    dust = CantorDust(np.repeat(values, np.diff(cuts)))
    assert_runs_kept(dust, kept)
    assert_cover_matches_bincount(dust, swept(B))


@pytest.mark.parametrize("B", [2, 7, 1000])
def test_run_keyed_cover_matches_bincount_on_signed_zeros_and_one(B):
    # -0.0 == 0.0, so this is in order: four runs, kept as four
    points = np.repeat([0.0, -0.0, 0.0, 1.0], 64)
    dust = CantorDust(points)
    assert_runs_kept(dust, True)
    assert np.array_equal(dust.counts, [64, 64, 64, 64])
    assert_cover_matches_bincount(dust, swept(B))


@pytest.mark.parametrize("make, kept", [
    (lambda: cascade(2**14, 8), True),
    (lambda: gen_uniform(2**14, "random", seed=4), False),
], ids=["runs-kept", "searched"])
def test_kernels_match_bincount_past_one_batch_of_edges(make, kept):
    """Box counts past 2^20, on a dust that kept its runs and one that
    did not."""
    dust = make()
    assert_runs_kept(dust, kept)
    assert_cover_matches_bincount(dust, [2**20 + 1, 2**20, 2])


@given(edge_dusts(), st.integers(1, 12))
def test_estimate_keeps_spectrum_invariant(dust_and_B, A):
    dust, B = dust_and_B
    spec = estimate(dust, B, A, force=True)
    assert np.all(np.diff(spec.alphas) > 0)
    assert np.all(np.isfinite(spec.alphas)) and np.all(np.isfinite(spec.fs))
    # every occupied box lands in exactly one bin
    occupied = np.count_nonzero(cover(dust, B).counts)
    assert round(float(np.sum(np.exp(spec.fs * np.log(B))))) == occupied


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edge_dusts(), st.integers(1, 12), st.data())
def test_csv_read_ignores_row_order(tmp_path, dust_and_B, A, data):
    dust, B = dust_and_B
    spec = estimate(dust, B, A, force=True)
    lines = format_spectrum_csv(spec).splitlines()
    body = lines.index("alpha,f") + 1
    rows = data.draw(st.permutations(lines[body:]))
    path = tmp_path / "shuffled.csv"
    path.write_text("\n".join(lines[:body] + rows) + "\n")
    back = read_spectrum_csv(path)
    assert back.alphas.tobytes() == spec.alphas.tobytes()
    assert back.fs.tobytes() == spec.fs.tobytes()


GOLDEN = Path(__file__).parent / "golden"


def sweep_ladder_sections():
    """Every output of the benchmark's sweep op at S = 1e5, as (label, text)
    sections: each spectrum's CSV text (its points at full precision), each
    report's to_json() and the SVG of the ladder, an 11-B ladder from A^2 to
    2 sqrt(S) (Warning-band past sqrt(S)) over a depth-13 binomial
    cascade."""
    dust = cascade(10**5, 13, seed=0)
    S = dust.sample_size
    _, A = auto_size(S)
    hi = math.floor(2 * math.sqrt(S))
    Bs = sorted({int(b) for b in np.geomspace(A * A, hi, 11)})
    specs = [e.spectrum for e in sweep_boxes(dust, Bs, A)]
    sections = []
    for B, spec in zip(Bs, specs):
        sections += [(f"B={B} csv", format_spectrum_csv(spec)),
                     (f"B={B} report", classify(spec).to_json() + "\n")]
    return sections + [("svg", render_spectra_svg(specs))]


def test_sweep_ladder_golden_bytes():
    """The sweep op's spectra, reports and SVG are the text recorded in
    tests/golden/sweep_ladder.txt, each section written after a line
    "==== label ====". The points come from np.log and the reports from
    np.polyfit, so the golden holds for the numpy build it was recorded
    with (numpy 2.4.6, x86-64); on another, a last-ulp difference fails
    here, and the assertion names the section and the line that moved.
    Only a change meant to move these outputs records it again."""
    text = (GOLDEN / "sweep_ladder.txt").read_text()
    parts = re.split(r"^==== (.+) ====\n", text, flags=re.M)
    assert parts[0] == ""
    expected = dict(zip(parts[1::2], parts[2::2]))
    got = sweep_ladder_sections()
    assert [label for label, _ in got] == list(expected)
    for label, body in got:  # by line, so a failure shows the line
        assert body.splitlines(True) == expected[label].splitlines(True), \
            label
