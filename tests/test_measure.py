import os
import stat

import numpy as np
import pytest

from mfkappa import measure
from mfkappa.errors import BadBoxCount, FormatError, SpecError
from mfkappa.measure import (CantorDust, atomic_write, cover, read_dust,
                             write_dust)
from mfkappa.oracles import SelfSimilarSpec, gen_farey, gen_uniform
from mfkappa.spectrum import histogram_spectrum, validate_sizing


def test_empty_signal_rejected():
    with pytest.raises(FormatError,
                       match="dust must contain at least one point") as exc:
        CantorDust(np.array([]))
    assert exc.value.exit_code == 1


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


def test_read_dust_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.5\nnot-a-number\n")
    with pytest.raises(FormatError):
        read_dust(path)


def test_read_dust_rejects_nan(tmp_path):
    path = tmp_path / "nan.txt"
    path.write_text("0.5\nnan\n")
    with pytest.raises(FormatError):
        read_dust(path)
