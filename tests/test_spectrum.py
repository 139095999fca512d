import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mfkappa.errors import (BadBoxCount, FormatError, MfkError,
                            SizingViolation, SpecError)
from mfkappa.measure import CantorDust, cover
from mfkappa.oracles import SelfSimilarSpec, gen_uniform, oracle_spectrum
from mfkappa.spectrum import (SizingStatus, Spectrum, alpha_field, auto_size,
                              estimate, histogram_spectrum,
                              read_spectrum_csv, sweep_boxes,
                              validate_sizing, write_spectrum_csv)
from mfkappa.spectrum import format_spectrum_csv


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


class TestSweep:
    def test_singleton_equals_estimate(self):
        dust = gen_uniform(10_000)
        entries = sweep_boxes(dust, [100], 9)
        assert len(entries) == 1
        direct = estimate(dust, 100, 9)
        assert np.array_equal(entries[0].spectrum.alphas, direct.alphas)

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
        def broken(*args, **kwargs):
            raise TypeError("not a sizing failure")

        monkeypatch.setattr("mfkappa.spectrum.estimate", broken)
        with pytest.raises(TypeError):
            sweep_boxes(gen_uniform(10_000), [100], 9)


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
], ids=["sizing", "notes-as-a-string", "lengths", "2-D", "0-D", "lists",
        "S-bool", "B-bool", "A-bool"])
def test_spectrum_refuses_fields_it_cannot_hold(fields, message):
    with pytest.raises(FormatError, match=message):
        Spectrum(**{"alphas": ONE, "fs": ONE, **fields})


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


def assert_cover_matches_bincount(dust, B):
    counts = cover(dust, B).counts
    expected = bincount_cover(dust, B)
    assert counts.dtype == expected.dtype
    assert np.array_equal(counts, expected)


@given(edge_dusts())
def test_cover_matches_bincount_on_edge_dusts(dust_and_B):
    assert_cover_matches_bincount(*dust_and_B)


@pytest.mark.parametrize("points, B", [
    ([0.5], 2),                      # S = 1
    ([0.3] * 7, 10),                 # all points equal
    ([1.0] * 5, 4),                  # all points at the closed end
    ([0.0] * 3 + [1.0] * 3, 1000),   # B > S: the forced path
    (np.arange(4) / 17, 1000),
], ids=["S-1", "all-equal", "all-at-one", "ends-B-gt-S", "edges-B-gt-S"])
def test_cover_matches_bincount_on_degenerate_dusts(points, B):
    assert_cover_matches_bincount(CantorDust(np.array(points, float)), B)


@pytest.mark.parametrize("B", [2, 3, 7, 10, 64, 1000])
def test_cover_matches_bincount_an_ulp_off_every_edge(B):
    edges = np.arange(B + 1) / B
    points = np.concatenate([edges, np.nextafter(edges, -1.0),
                             np.nextafter(edges, 2.0)])
    dust = CantorDust(np.clip(points, 0.0, 1.0))
    assert_cover_matches_bincount(dust, B)


@pytest.mark.parametrize("B", [2, 81, 1000, 2049])
def test_cover_matches_bincount_at_large_S(B):
    rng = np.random.default_rng(B)
    dust = CantorDust(rng.random(2**20 + 3) ** 2)  # S not a power of two
    assert_cover_matches_bincount(dust, B)


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
