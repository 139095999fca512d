"""The test settings, and the start-up cost every mfk process pays."""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import mfkappa
from mfkappa.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC = os.path.dirname(os.path.dirname(mfkappa.__file__))


def test_a_failing_given_test_is_reported_and_the_session_goes_on(tmp_path):
    # filterwarnings = error turns every warning into an error; hypothesis
    # warns while it reports a failing example, and that must not end the
    # session before the tests after it run
    (tmp_path / "test_given.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_after():
            pass
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), str(tmp_path / "test_given.py")],
        capture_output=True, text=True, cwd=tmp_path)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed")


def test_cli_import_leaves_out_concurrent_futures():
    # mfk imports no library module at start-up, so only a process that
    # draws a cascade loads concurrent.futures
    proc = subprocess.run(
        [sys.executable, "-c", "import mfkappa.cli, sys; "
         "print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.stdout == "False\n"


# Runs mfk with the arguments after the first and writes the names in
# sys.modules at exit to the file that the first names.
PROBE = """\
import atexit, sys
out = sys.argv.pop(1)
def dump():
    with open(out, "w") as fh:
        fh.write("\\n".join(sorted(sys.modules)))
atexit.register(dump)
from mfkappa.cli import main
sys.exit(main(sys.argv[1:]))
"""
LIBRARY = ("mfkappa.measure", "mfkappa.spectrum", "mfkappa.geometry",
           "mfkappa.oracles", "mfkappa.svgplot")
SPEC = '{"p": [0.5, 0.5], "r": [0.3, 0.3], "depth": 4, "S": 10}'


def loaded_modules(tmp_path, argv, code=0):
    out = tmp_path / "modules.txt"
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(out), *map(str, argv)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == code, proc.stderr
    return set(out.read_text().split())


@pytest.mark.parametrize("argv,code", [
    (["--help"], 0), (["generate", "selfsimilar", "--help"], 0),
    (["analyze", "x", "--bogus"], 2)], ids=["help", "kind-help", "bad-flag"])
def test_help_and_usage_errors_load_no_numpy(tmp_path, argv, code):
    # the benchmark's cli set-up times one `mfk --help`: that process loads
    # these three of the package's modules and nothing of numpy
    loaded = loaded_modules(tmp_path, argv, code)
    assert loaded.isdisjoint(("numpy", *LIBRARY))
    assert {name for name in loaded if name.partition(".")[0] == "mfkappa"} \
        == {"mfkappa", "mfkappa.cli", "mfkappa.errors"}


@pytest.fixture
def inputs(tmp_path):
    """A 400-point dust, its spectrum CSV and a cascade spec file."""
    dust, csv = tmp_path / "dust.txt", tmp_path / "spec.csv"
    assert main(["generate", "uniform", "--S", "400", "--out",
                 str(dust)]) == 0
    assert main(["analyze", str(dust), "--boxes", "20", "--bins", "4",
                 "--out", str(csv)]) == 0
    (tmp_path / "a.json").write_text(SPEC)
    return {"dust": dust, "csv": csv, "spec": tmp_path / "a.json",
            "out": tmp_path / "out"}


@pytest.mark.parametrize("argv,absent", [
    (["generate", "selfsimilar", "--S", "10", "--depth", "4", "--out",
      "{out}"], ("mfkappa.spectrum", "mfkappa.geometry")),
    (["generate", "superposed", "--spec-a", "{spec}", "--spec-b", "{spec}",
      "--out", "{out}"], ("mfkappa.spectrum", "mfkappa.geometry")),
    (["generate", "farey", "--Q", "5", "--out", "{out}"],
     ("mfkappa.spectrum", "mfkappa.geometry", "concurrent.futures")),
    (["generate", "uniform", "--S", "10", "--out", "{out}"],
     ("mfkappa.spectrum", "mfkappa.geometry", "concurrent.futures")),
    (["analyze", "{dust}", "--auto-size", "--out", "{out}"],
     ("mfkappa.geometry", "mfkappa.oracles", "concurrent.futures")),
    (["classify", "{csv}", "--out", "{out}"],
     ("mfkappa.oracles", "concurrent.futures")),
    (["sweep", "{dust}", "--boxes", "10,20", "--bins", "3", "--out-prefix",
      "{out}"],
     ("mfkappa.oracles", "mfkappa.svgplot", "concurrent.futures")),
    (["plot", "{csv}", "--out", "{out}"],
     ("mfkappa.oracles", "concurrent.futures")),
], ids=["selfsimilar", "superposed", "farey", "uniform", "analyze",
        "classify", "sweep", "plot"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, inputs, argv,
                                                      absent):
    loaded = loaded_modules(tmp_path, [a.format(**inputs) for a in argv])
    assert "numpy" in loaded  # the probe sees what the command imports
    assert loaded.isdisjoint(absent)


PUBLIC = {  # the names `import mfkappa` exported when it imported eagerly
    "measure": ["CantorDust", "NaturalMeasure", "cover", "read_dust",
                "write_dust"],
    "spectrum": ["SizingStatus", "Spectrum", "alpha_field", "auto_size",
                 "estimate", "histogram_spectrum", "read_spectrum_csv",
                 "sweep_boxes", "validate_sizing", "write_spectrum_csv"],
    "geometry": ["FragmentReport", "GeometryConfig", "RegimeReport",
                 "SegmentReport", "SpectrumFeatures", "cap_shape_check",
                 "classify", "compare_sweep", "detect_fragments",
                 "detect_segment", "features"],
    "oracles": ["OracleSpectrum", "SelfSimilarSpec", "gen_farey",
                "gen_selfsimilar", "gen_superposed", "gen_uniform",
                "oracle_spectrum"],
}


def test_lazy_exports_are_the_home_modules_names():
    assert sorted(mfkappa.__all__) == sorted(
        name for names in PUBLIC.values() for name in names)
    for module, names in PUBLIC.items():
        home = importlib.import_module(f"mfkappa.{module}")
        for name in names:
            assert getattr(mfkappa, name) is getattr(home, name), name
    assert set(mfkappa.__all__) <= set(dir(mfkappa))
    with pytest.raises(AttributeError, match="no_such_name"):
        mfkappa.no_such_name
    from mfkappa import cli  # a submodule name falls through to its import
    assert cli.main is main
