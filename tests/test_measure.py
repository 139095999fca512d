import os
import stat
import tracemalloc
import warnings

import numpy as np
import pytest

from mfkappa import measure
from mfkappa.errors import BadBoxCount, FormatError, SpecError
from mfkappa.measure import (CantorDust, NaturalMeasure, atomic_write, cover,
                             read_dust, write_dust)
from mfkappa.oracles import (SelfSimilarSpec, gen_farey, gen_selfsimilar,
                             gen_uniform)
from mfkappa.spectrum import histogram_spectrum, validate_sizing


def test_empty_signal_rejected():
    with pytest.raises(FormatError,
                       match="dust must contain at least one point") as exc:
        CantorDust(np.array([]))
    assert exc.value.exit_code == 1
    for args in ([[[0.1, 0.2], [0.3, 0.4]]], [0.5],
                 [np.array([[0.1, 0.2]]), np.array([[1, 2]])]):
        with pytest.raises(FormatError,
                           match="dust points must be a 1-D array"):
            CantorDust(*args)


C = measure._CHUNK_LINES  # CantorDust checks the order a chunk at a time
EDGE = np.linspace(0.0, 1.0, C + 5)
EDGE[[C - 1, C]] = EDGE[[C, C - 1]]  # its one descent crosses a chunk edge


@pytest.mark.parametrize("points", [
    np.linspace(0.0, 1.0, C + 5), np.array([-0.0, 0.0, -0.0, 0.5]),
    np.array([0.5, 0.25, 1.0]), EDGE],
    ids=["in-order", "signed-zeros-in-order", "out-of-order",
         "descent-at-chunk-edge"])
def test_dust_neither_aliases_nor_reorders_its_input(points):
    given = points.copy()
    dust = CantorDust(given)
    assert not np.shares_memory(dust.points, given)
    assert np.array_equal(given.view(np.int64), points.view(np.int64))
    # input in order is kept bit for bit, -0.0 and 0.0 included
    want = points if (points[1:] >= points[:-1]).all() else np.sort(points)
    assert np.array_equal(dust.points.view(np.int64), want.view(np.int64))
    assert (dust.points[1:] >= dust.points[:-1]).all()


def dust_points(kind, S):
    if kind == "distinct":
        return np.sort(np.random.default_rng(0).random(S))
    cascade = gen_selfsimilar(
        SelfSimilarSpec((0.3, 0.7), (0.5, 0.5), 13, S, 7)).points
    if kind == "cascade":
        return cascade.copy()
    return np.random.default_rng(1).permutation(cascade)


@pytest.mark.parametrize("kind, kept", [
    ("distinct", False), ("cascade", True), ("shuffled-cascade", True)])
def test_order_check_and_runs_hold_no_s_byte_temporary(kind, kept):
    """Past a copy of the points (8 bytes a point), which a dust without
    counts holds and a dust given out of order sorts into, CantorDust holds
    at most the kept run starts twice over, as the chunks' pieces and their
    join (8 bytes a start, at most S // _RUN_SHARE of them), or the starts,
    the values and counts made from them and np.diff's appended copy, and a
    chunk's two comparison masks (a byte a point), with room to spare:
    2 * _CHUNK_LINES more. A one-byte-a-point mask over the whole dust,
    2^20 bytes, would not fit."""
    S = 2**20
    points = dust_points(kind, S)
    bound = (8 * S + 2 * 8 * (S // measure._RUN_SHARE)
             + 4 * measure._CHUNK_LINES)
    assert bound < 9 * S
    tracemalloc.start()
    try:
        dust = CantorDust(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (dust.counts is not None) == kept
    assert peak <= bound


def test_runs_past_the_cap_are_expanded_without_their_starts():
    """CantorDust(values, counts) of S distinct values, each with a count of
    1, has S runs, past S // _RUN_SHARE, so it holds the S points and no
    counts. It holds at most three S-item arrays of 8 bytes: the argsort
    and the sorted values and counts while it gathers, and the sorted
    values and counts and the expanded points once the argsort is freed,
    with a few chunks' comparison masks to spare (4 * _CHUNK_LINES bytes).
    Keeping the argsort through the expansion took 4 * 8S bytes, and
    making every run's start, value and summed count before expanding them
    6 * 8S."""
    S = 2**20
    values, counts = np.linspace(0.0, 1.0, S), np.ones(S, np.int64)
    bound = 3 * 8 * S + 4 * measure._CHUNK_LINES
    assert bound < 4 * 8 * S
    tracemalloc.start()
    try:
        dust = CantorDust(values, counts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dust.counts is None
    assert np.array_equal(dust.values, values)
    assert peak <= bound


def test_cover_direct_count():
    m = cover(CantorDust(np.array([0.05, 0.15, 0.95])), 10)
    expected = np.zeros(10)
    expected[[0, 1, 9]] = 1 / 3
    np.testing.assert_allclose(m.mu, expected)


def test_cover_boundary_goes_to_right_box():
    m = cover(CantorDust(np.array([0.1])), 10)
    assert m.mu[1] == 1.0


def test_cover_last_box_closed():
    m = cover(CantorDust(np.array([1.0])), 10)
    assert m.mu[9] == 1.0


def test_cover_rejects_tiny_box_count():
    with pytest.raises(BadBoxCount):
        cover(CantorDust(np.array([0.5])), 1)


def test_cover_rejects_box_edges_past_the_array_length():
    B = int(np.iinfo(np.intp).max)  # far past the largest array length
    with pytest.raises(BadBoxCount, match=f"box count {B} exceeds the "
                       "largest array length") as exc:
        cover(CantorDust(np.array([0.5])), B)
    assert exc.value.exit_code == 2


DUST = CantorDust(np.linspace(0.0, 1.0, 100))
COUNT_CALLERS = {  # each caller of the count guard, with the count as n
    "gen_uniform": (gen_uniform, "sample size"),
    "gen_farey": (gen_farey, "max denominator"),
    "cover": (lambda n: cover(DUST, n), "box count"),
    "SelfSimilarSpec": (lambda n: SelfSimilarSpec(
        (0.5, 0.5), (1 / 3, 1 / 3), 4, n), "sample size"),
    "histogram_spectrum": (lambda n: histogram_spectrum(
        np.array([1.0, 2.0]), 10, n), "bin count"),
    "validate_sizing": (lambda n: validate_sizing(10_000, n, 9), "box count"),
    "histogram_spectrum-B": (lambda n: histogram_spectrum(
        np.array([1.0, 2.0]), n, 3), "box count"),
    "validate_sizing-S": (lambda n: validate_sizing(n, 10, 3), "sample size"),
}


@pytest.mark.parametrize("n", [10.5, 10.0, float("nan"), True],
                         ids=["float", "whole-float", "nan", "bool"])
@pytest.mark.parametrize("caller", COUNT_CALLERS)
def test_a_count_that_is_not_an_integer_is_refused(caller, n):
    call, what = COUNT_CALLERS[caller]
    with pytest.raises(SpecError, match=f"^{what} must be an integer, "
                       f"got {n!r}$") as exc:
        call(n)
    assert exc.value.exit_code == 2


@pytest.mark.parametrize("caller", COUNT_CALLERS)
def test_a_numpy_integer_count_is_accepted(caller):
    COUNT_CALLERS[caller][0](np.int32(10))


@pytest.mark.parametrize("masses", [
    [-1.0, 2.0], [np.nan, 1.0], [np.inf, 1.0], [[1, 2], [3, 4]], [0.0, 0.0],
    [5], [True, False], ["1", "2"]],
    ids=["negative", "nan", "inf", "2-D", "zero-sum", "one-box", "bool",
         "str"])
def test_natural_measure_refuses_what_is_not_a_measure(masses):
    with pytest.raises(FormatError, match="box masses must be a 1-D array"):
        NaturalMeasure(np.array(masses))


def test_natural_measure_takes_exact_weights():
    assert NaturalMeasure(np.array([0.0, 0.25, 0.75])).mu.tolist() == [
        0.0, 0.25, 0.75]


def test_natural_measure_sums_large_counts_without_wrapping():
    # an int64 sum of four 2**62 wrapped to 0, and of five to 2**62
    assert NaturalMeasure(np.array([2**62] * 5)).mu.tolist() == [0.2] * 5
    assert NaturalMeasure(np.array([2**62] * 4)).mu.tolist() == [0.25] * 4


def test_natural_measure_refuses_a_float_sum_past_the_largest_unwarned():
    # a warning is an error under the test suite's filter, and would
    # escape in place of the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError, match="box masses must be a 1-D "
                           "array"):
            NaturalMeasure(np.array([1e308, 1e308]))


RAGGED = [[0.25], [0.5, 0.75]]
POINTS = "dust points must be a 1-D array of real numbers"
COUNTS = "dust counts must be positive integers"


@pytest.mark.parametrize("values, counts, match", [
    (RAGGED, None, POINTS),
    ("abc", None, POINTS),
    (["0.25", "0.5"], None, POINTS),
    ([0.5 + 1j, 0.25], None, POINTS),
    (np.array([0.5 + 0j, 0.25]), None, POINTS),
    ([0.25, 0.5], RAGGED, COUNTS),
    ([0.25, 0.5], ["1", "2"], COUNTS),
    ([0.25, 0.5], [1 + 1j, 2], COUNTS),
], ids=["ragged-points", "string", "string-points", "complex-points",
        "complex-array", "ragged-counts", "string-counts", "complex-counts"])
def test_dust_input_that_is_not_real_numbers_is_refused(values, counts,
                                                        match):
    with pytest.raises(FormatError, match=match) as exc:
        CantorDust(values, counts)
    assert exc.value.exit_code == 1


@pytest.mark.parametrize("counts, total", [
    ([2**62, 2**62], None),  # the int64 sum wraps negative
    ([2**63 - 1, 2], None),  # one count past 2^53
    (np.array([2**64 - 1, 1], dtype=np.uint64), None),
    ([2**52, 2**52 - 1], 2**53 - 1),
    ([2**52, 2**52], 2**53),
    ([2**52, 2**52 + 1], None),
], ids=["wraps", "one-count-past", "uint64", "bound-1", "bound", "bound+1"])
def test_dust_counts_total_at_most_2_to_the_53(counts, total):
    # cover adds the counts as floats, exact up to 2^53
    if total is None:
        with pytest.raises(FormatError, match=r"with a total of at most "
                           r"2\*\*53$") as exc:
            CantorDust(np.array([0.25, 0.5]), counts)
        assert exc.value.exit_code == 1
        return
    dust = CantorDust(np.array([0.25, 0.5]), counts)
    assert dust.sample_size == total
    assert cover(dust, 4).counts.tolist() == [0, counts[0], counts[1], 0]


@pytest.mark.parametrize("seed", range(20))
def test_measure_conservation_and_refinement(seed):
    rng = np.random.default_rng(seed)
    dust = CantorDust(rng.random(rng.integers(1, 500)))
    B = int(rng.integers(2, 64))
    m = cover(dust, B)
    assert abs(m.mu.sum() - 1.0) <= 1e-12
    assert m.counts.sum() == dust.sample_size
    # pairwise-aggregated counts at 2B reproduce counts at B exactly
    m2 = cover(dust, 2 * B)
    agg = m2.counts.reshape(B, 2).sum(axis=1)
    assert np.array_equal(agg, m.counts)


def test_dust_roundtrip(tmp_path):
    dust = CantorDust(np.array([0.25, 0.5, 1.0]))
    path = tmp_path / "dust.txt"
    write_dust(dust, path, header={"kind": "fixture"})
    back = read_dust(path)
    assert np.array_equal(back.points, dust.points)


def test_atomic_write_honours_umask(tmp_path):
    old = os.umask(0o022)
    try:
        atomic_write(tmp_path / "out.txt", ["x\n"])
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "out.txt").st_mode) == 0o644


def test_atomic_write_fsyncs_before_rename(tmp_path, monkeypatch):
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_size))  # text flushed first
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", os.path.exists(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    atomic_write(tmp_path / "out.txt", ["0.5\n" * 500, "0.5\n" * 500])
    assert calls == [("fsync", 4000), ("replace", False)]
    assert (tmp_path / "out.txt").read_text() == "0.5\n" * 1000


def test_atomic_write_failure_keeps_the_target(tmp_path):
    # a chunk source that fails after its first chunk: the error comes
    # through, the old file is untouched and no temporary file is left
    target = tmp_path / "out.txt"
    target.write_bytes(b"old contents\n")

    def chunks():
        yield "new contents\n"
        raise RuntimeError("chunk source failed")

    with pytest.raises(RuntimeError, match="chunk source failed"):
        atomic_write(target, chunks())
    assert target.read_bytes() == b"old contents\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_read_dust_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.5\nnot-a-number\n")
    with pytest.raises(FormatError):
        read_dust(path)


def test_nan_among_counted_values_is_refused_unexpanded():
    # a NaN sorts last, so the joined runs fail the order check; they are
    # refused as they are, not expanded to their 2^50 points first
    with pytest.raises(FormatError, match=r"dust points must lie in "
                       r"\[0,1\]$") as exc:
        CantorDust(np.array([np.nan, 0.5]), [1, 2**50])
    assert exc.value.exit_code == 1


def test_read_dust_rejects_nan(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("0.5\nnan\n")
    with pytest.raises(FormatError):
        read_dust(path)
