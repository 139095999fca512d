import os
import stat

import numpy as np
import pytest

from mfkappa.errors import BadBoxCount, BadWindow, EmptySignal, FormatError
from mfkappa.measure import (CantorDust, EventSignal, atomic_write, cover,
                             normalize_signal, read_dust, read_events,
                             write_dust)


def test_normalize_midpoint():
    sig = EventSignal(events=np.array([5.0]), window=(0.0, 10.0))
    dust = normalize_signal(sig)
    assert dust.points.tolist() == [0.5]


def test_normalize_endpoints():
    sig = EventSignal(events=np.array([0.0, 10.0]), window=(0.0, 10.0))
    assert normalize_signal(sig).points.tolist() == [0.0, 1.0]


def test_empty_signal_rejected():
    with pytest.raises(EmptySignal):
        EventSignal(events=np.array([]), window=(0.0, 1.0))


def test_degenerate_window_rejected():
    with pytest.raises(BadWindow):
        EventSignal(events=np.array([0.5]), window=(1.0, 1.0))


def test_duplicate_events_rejected():
    with pytest.raises(FormatError):
        EventSignal(events=np.array([0.5, 0.5]), window=(0.0, 1.0))


def test_normalize_idempotent_on_unit_window():
    pts = np.array([0.1, 0.4, 0.9])
    sig = EventSignal(events=pts, window=(0.0, 1.0))
    assert normalize_signal(sig).points.tolist() == pts.tolist()


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
        atomic_write(tmp_path / "out.txt", "x\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "out.txt").st_mode) == 0o644


def test_read_events_with_metadata(tmp_path):
    path = tmp_path / "events.txt"
    path.write_text(
        "# kappa=4.08\n# nu=20\n# t_start=0\n# t_end=10\n2.5\n5.0\n")
    sig = read_events(path)
    assert sig.meta["kappa"] == 4.08
    assert sig.window == (0.0, 10.0)
    dust = normalize_signal(sig)
    assert dust.points.tolist() == [0.25, 0.5]


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


def test_nan_event_rejected():
    with pytest.raises(FormatError):
        EventSignal(events=np.array([0.1, np.nan, 0.5]), window=(0.0, 1.0))


@pytest.mark.parametrize("header", ["# t_start=abc", "# kappa=heavy"])
def test_read_events_bad_header_value(tmp_path, header):
    path = tmp_path / "events.txt"
    path.write_text(f"{header}\n2.5\n5.0\n")
    with pytest.raises(FormatError, match="events.txt"):
        read_events(path)
