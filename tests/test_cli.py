import argparse
import json
import math
import os
import resource
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfkappa
from mfkappa import errors, svgplot
from mfkappa.cli import build_parser, main
from mfkappa.geometry import detect_fragments
from mfkappa.measure import (_MAX_COUNT, cover, read_dust, read_rows,
                             write_dust)
from mfkappa.oracles import gen_uniform
from mfkappa.spectrum import (alpha_field, auto_size, estimate,
                              histogram_spectrum, read_spectrum_csv,
                              Spectrum, validate_sizing, write_spectrum_csv)
from mfkappa.svgplot import render_spectra_svg


def run(*argv):
    return main(list(argv))


@pytest.fixture
def uniform_dust(tmp_path):
    path = tmp_path / "uniform.txt"
    assert run("generate", "uniform", "--S", "10000",
               "--out", str(path)) == 0
    return path


class TestGenerate:
    def test_farey_line_count(self, tmp_path):
        out = tmp_path / "farey.txt"
        assert run("generate", "farey", "--Q", "5", "--out", str(out)) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) == 11

    def test_uniform_first_point(self, uniform_dust):
        rows = [l for l in uniform_dust.read_text().splitlines()
                if l and not l.startswith("#")]
        assert float(rows[0]) == 0.00005

    def test_selfsimilar_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ["generate", "selfsimilar", "--p", "0.3", "--r", "0.5",
                "--depth", "13", "--S", "2000", "--seed", "9"]
        assert run(*argv, "--out", str(a)) == 0
        assert run(*argv, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_spec_exits_2(self, tmp_path):
        out = tmp_path / "x.txt"
        assert run("generate", "selfsimilar", "--p", "0.5", "--r", "0.7",
                   "--out", str(out)) == 2
        assert not out.exists()

    def test_superposed_from_spec_files(self, tmp_path):
        spec_a = tmp_path / "a.json"
        spec_b = tmp_path / "b.json"
        spec_a.write_text(json.dumps({"p": [0.5, 0.5], "r": [1 / 3, 1 / 3],
                                      "depth": 8, "S": 500, "seed": 1}))
        spec_b.write_text(json.dumps({"p": [0.5, 0.5], "r": [1 / 9, 1 / 9],
                                      "depth": 5, "S": 500, "seed": 2}))
        out = tmp_path / "mix.txt"
        assert run("generate", "superposed", "--spec-a", str(spec_a),
                   "--spec-b", str(spec_b), "--mix", "0.5", "--disjoint",
                   "--out", str(out)) == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) == 1000

    @pytest.mark.parametrize("mix, name", [("0.001", "spec_a"),
                                           ("0.999", "spec_b")])
    def test_superposed_mix_that_leaves_a_cascade_no_point_exits_2(
            self, tmp_path, capsys, mix, name):
        spec = {"p": [0.5, 0.5], "r": [0.3, 0.3], "depth": 4, "S": 50}
        (tmp_path / "a.json").write_text(json.dumps(spec))
        out = tmp_path / "mix.txt"
        assert run("generate", "superposed", "--spec-a",
                   str(tmp_path / "a.json"), "--spec-b",
                   str(tmp_path / "a.json"), "--mix", mix,
                   "--out", str(out)) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: mix {mix} gives {name} 0 of 100 points"]
        assert not out.exists()


# The flags each kind reads, each with two values that give different
# dusts or headers; None marks a switch. Every kind also reads --out.
KIND_FLAGS = {
    "selfsimilar": {"--p": ("0.3", "0.4"), "--r": ("0.3", "0.4"),
                    "--r2": ("0.2", "0.25"), "--depth": ("5", "6"),
                    "--S": ("50", "60"), "--seed": ("1", "2")},
    "superposed": {"--spec-a": ("{a}", "{b}"), "--spec-b": ("{b}", "{a}"),
                   "--mix": ("0.5", "0.25"), "--disjoint": None},
    "farey": {"--Q": ("5", "6")},
    "uniform": {"--S": ("50", "60"), "--seed": ("1", "2"),
                "--mode": ("random", "equispaced")},
}
# A value for every flag some kind reads, and for the removed --spec.
ANY_VALUE = {flag: values and values[0] for flags in KIND_FLAGS.values()
             for flag, values in flags.items()} | {"--spec": "{a}"}
ACCEPTED = [(kind, flag) for kind, flags in KIND_FLAGS.items()
            for flag in [*flags, "--out"]]
FOREIGN = [(kind, flag) for kind in KIND_FLAGS for flag in ANY_VALUE
           if flag not in KIND_FLAGS[kind]]


class TestGenerateFlags:
    """Each kind takes only the flags it reads: a foreign flag exits 2 and
    writes nothing, and each accepted flag changes the file written."""

    @pytest.fixture
    def specs(self, tmp_path):
        paths = {"a": tmp_path / "a.json", "b": tmp_path / "b.json"}
        paths["a"].write_text(json.dumps(
            {"p": [0.5, 0.5], "r": [1 / 3, 1 / 3], "depth": 6, "S": 200,
             "seed": 1}))
        paths["b"].write_text(json.dumps(
            {"p": [0.3, 0.7], "r": [0.5, 0.5], "depth": 6, "S": 200,
             "seed": 2}))
        return {k: str(v) for k, v in paths.items()}

    @staticmethod
    def argv(kind, flags, specs):
        argv = ["generate", kind]
        for flag, value in flags.items():
            argv += [flag] if value is None else [flag, value.format(**specs)]
        return argv

    def test_table_lists_every_generate_flag(self):
        def choices(parser):
            return next(a.choices for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction))
        kinds = choices(choices(build_parser())["generate"])
        assert sorted(kinds) == sorted(KIND_FLAGS)
        for kind, parser in kinds.items():
            flags = {o for a in parser._actions for o in a.option_strings}
            assert flags - {"-h", "--help"} == {*KIND_FLAGS[kind], "--out"}
        assert len(ACCEPTED) == 18 and len(FOREIGN) == 38

    @pytest.mark.parametrize("kind,flag", FOREIGN)
    def test_foreign_flag_exits_2(self, kind, flag, specs, tmp_path, capsys):
        base = {f: v and v[0] for f, v in KIND_FLAGS[kind].items()}
        out = tmp_path / "out.txt"
        argv = self.argv(kind, base | {flag: ANY_VALUE[flag]}, specs)
        assert run(*argv, "--out", str(out)) == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert flag in err[0]

    @pytest.mark.parametrize("kind,flag", ACCEPTED)
    def test_accepted_flag_changes_output(self, kind, flag, specs, tmp_path):
        base = {f: v and v[0] for f, v in KIND_FLAGS[kind].items()}
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        assert run(*self.argv(kind, base, specs), "--out", str(first)) == 0
        if flag == "--out":
            assert first.exists()
            return
        values = KIND_FLAGS[kind][flag]
        changed = dict(base)
        if values is None:
            changed.pop(flag)  # the switch, off
        else:
            changed[flag] = values[1]
        if changed.get("--mode") == "equispaced":
            changed.pop("--seed")  # a seed is refused where nothing is drawn
        assert run(*self.argv(kind, changed, specs),
                   "--out", str(second)) == 0
        assert first.read_bytes() != second.read_bytes()


def test_seed_in_header_only_where_drawn(tmp_path):
    headers = {}
    for mode in ("equispaced", "random"):
        path = tmp_path / f"{mode}.txt"
        assert run("generate", "uniform", "--S", "3", "--mode", mode,
                   "--out", str(path)) == 0
        headers[mode] = dict(read_rows(path)[0])
    assert headers["equispaced"] == {"kind": "uniform", "S": "3",
                                     "mode": "equispaced"}
    assert headers["random"] == {"kind": "uniform", "S": "3",
                                 "mode": "random", "seed": "0"}


# Spec files with float counts and with seed left to its default; each
# header line writes the spec as its dataclass fields.
SPEC_A = ('{"p": [0.3, 0.7], "r": [0.5, 0.5], "depth": 5.0, "S": 5e2, '
          '"seed": 3}')
SPEC_B = ('{"p": [0.5, 0.5], "r": [0.3333333333333333, 0.2], "depth": 6, '
          '"S": 40}')
SPEC_LINES = [
    '# spec_a={"p": [0.3, 0.7], "r": [0.5, 0.5], "depth": 5, "S": 500, '
    '"seed": 3}',
    '# spec_b={"p": [0.5, 0.5], "r": [0.3333333333333333, 0.2], "depth": 6, '
    '"S": 40, "seed": 0}']


@pytest.mark.parametrize("argv,header", [
    (["selfsimilar", "--p", "0.3", "--r", "0.4", "--r2", "0.25", "--depth",
      "9", "--S", "50", "--seed", "4"],
     ["# kind=selfsimilar",
      '# spec={"p": [0.3, 0.7], "r": [0.4, 0.25], "depth": 9, "S": 50, '
      '"seed": 4}']),
    (["superposed", "--spec-a", "{tmp}/a.json", "--spec-b", "{tmp}/b.json",
      "--mix", "0.4"],
     ["# kind=superposed", "# mix=0.4", "# disjoint=False", *SPEC_LINES]),
    (["superposed", "--spec-a", "{tmp}/a.json", "--spec-b", "{tmp}/b.json",
      "--disjoint"],
     ["# kind=superposed", "# mix=0.5", "# disjoint=True", *SPEC_LINES]),
    (["farey", "--Q", "5"], ["# kind=farey", "# Q=5"]),
    (["uniform", "--S", "30"],
     ["# kind=uniform", "# S=30", "# mode=equispaced"]),
    (["uniform", "--mode", "random", "--S", "30", "--seed", "9"],
     ["# kind=uniform", "# S=30", "# mode=random", "# seed=9"]),
], ids=["selfsimilar", "superposed", "superposed-disjoint", "farey",
        "uniform-equispaced", "uniform-random"])
def test_generate_header_bytes(argv, header, tmp_path):
    (tmp_path / "a.json").write_text(SPEC_A)
    (tmp_path / "b.json").write_text(SPEC_B)
    out = tmp_path / "out.txt"
    argv = [a.format(tmp=tmp_path) for a in argv]
    assert run("generate", *argv, "--out", str(out)) == 0
    text = out.read_bytes()
    expected = "".join(f"{line}\n" for line in header).encode()
    assert text[:len(expected)] == expected
    assert b"#" not in text[len(expected):]


class TestAnalyze:
    def test_auto_size_header_and_row(self, uniform_dust, tmp_path):
        out = tmp_path / "spec.csv"
        assert run("analyze", str(uniform_dust), "--auto-size",
                   "--out", str(out)) == 0
        text = out.read_text()
        assert "# B=100" in text
        assert "# A=9" in text
        assert "# sizing=Ok" in text
        rows = [l for l in text.splitlines()
                if l and not l.startswith("#") and l != "alpha,f"]
        assert rows == ["1.0,1.0"]

    def test_auto_size_of_a_small_dust_sizes_ok(self, tmp_path):
        dust, out = tmp_path / "d.txt", tmp_path / "spec.csv"
        assert run("generate", "uniform", "--S", "50", "--out", str(dust)) == 0
        assert run("analyze", str(dust), "--auto-size",
                   "--out", str(out)) == 0
        text = out.read_text()
        assert "# B=7" in text and "# A=2" in text
        assert "# sizing=Ok" in text

    def test_warning_band_exits_zero(self, uniform_dust, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert run("analyze", str(uniform_dust), "--boxes", "200",
                   "--bins", "9", "--out", str(out)) == 0
        assert "warning" in capsys.readouterr().err

    def test_violation_exits_3(self, uniform_dust, tmp_path):
        out = tmp_path / "spec.csv"
        assert run("analyze", str(uniform_dust), "--boxes", "5000",
                   "--bins", "9", "--out", str(out)) == 3
        assert not out.exists()

    def test_violation_forced(self, uniform_dust, tmp_path):
        out = tmp_path / "spec.csv"
        assert run("analyze", str(uniform_dust), "--boxes", "5000",
                   "--bins", "9", "--force", "--out", str(out)) == 0
        assert "# sizing=Violation" in out.read_text()

    def test_missing_input_exits_1(self, tmp_path):
        assert run("analyze", str(tmp_path / "nope.txt"),
                   "--auto-size") == 1

    def test_auto_size_conflicts_with_boxes(self, uniform_dust):
        assert run("analyze", str(uniform_dust), "--auto-size",
                   "--boxes", "100") == 2


class TestClassify:
    def write_csv(self, tmp_path, alphas, fs):
        path = tmp_path / "spec.csv"
        lines = ["# S=10000", "# B=100", "# A=9", "# epsilon_alpha=0.0",
                 "# sizing=Ok", "alpha,f"]
        lines += [f"{a},{f}" for a, f in zip(alphas, fs)]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_crisis_fixture(self, tmp_path, capsys):
        alphas = [0.70, 0.75, 0.80] + [0.85 + 0.05 * k for k in range(5)] \
            + [1.15, 1.20]
        fs = [0.30, 0.42, 0.52] + [0.5 * a + 0.2 for a in
                                   (0.85 + 0.05 * k for k in range(5))] \
            + [0.70, 0.55]
        path = self.write_csv(tmp_path, alphas, fs)
        assert run("classify", str(path), "--segment-tol", "1e-6",
                   "--min-run", "5") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regime"] == "Crisis"
        assert doc["segment"]["found"]

    def test_window_of_alphas_ulps_apart_fits_without_a_warning(
            self, tmp_path, capsys):
        """polyfit's rank falls to 1 on alphas an ulp apart; refitted from
        the first alpha, the window fits with no RankWarning, which the
        test settings would raise as an error."""
        k = range(6)
        path = self.write_csv(tmp_path, [1.0 + i * 2**-52 for i in k],
                              [0.1 * (i + 1) for i in k])
        assert run("classify", str(path)) == 0
        out, err = capsys.readouterr()
        assert err == ""
        segment = json.loads(out)["segment"]
        assert segment["run"] == [0, 5]
        assert segment["slope"] == pytest.approx(0.1 * 2**52)
        assert segment["residual"] < 1e-16

    def test_postcrisis_fixture(self, tmp_path, capsys):
        path = self.write_csv(tmp_path,
                              [0.5, 0.55, 0.6, 1.2, 1.25, 1.3],
                              [0.3, 0.5, 0.3, 0.2, 0.4, 0.2])
        assert run("classify", str(path)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regime"] == "PostCrisisBiMultifractal"
        assert len(doc["fragmentation"]["fragments"]) == 2

    def test_indeterminate_single_point(self, tmp_path, capsys):
        path = self.write_csv(tmp_path, [0.7], [0.0])
        assert run("classify", str(path)) == 0
        assert json.loads(capsys.readouterr().out)["regime"] == \
            "Indeterminate"

    def test_report_written_to_file(self, tmp_path):
        path = self.write_csv(tmp_path, [0.9, 1.0, 1.1], [0.3, 0.7, 0.2])
        out = tmp_path / "report.json"
        assert run("classify", str(path), "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert doc["regime"] == "PreCrisis"

    def test_malformed_csv_exits_1(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("alpha,f\n0.9,oops\n")
        assert run("classify", str(path)) == 1

    @pytest.mark.parametrize("alphas,fs", [
        ([0.9, float("nan"), 1.1], [0.3, 0.5, 0.2]),
        ([0.9, 1.0, 1.1], [0.3, float("inf"), 0.2]),
        ([0.9, 1.0, 1.0], [0.3, 0.7, 0.2]),
    ], ids=["nan-alpha", "inf-f", "duplicate-alpha"])
    def test_refused_rows_exit_1(self, tmp_path, alphas, fs):
        path = self.write_csv(tmp_path, alphas, fs)
        assert run("classify", str(path)) == 1

    def test_header_only_csv_exits_1(self, tmp_path, capsys):
        # refused where the Spectrum is built, with the file's name
        path = self.write_csv(tmp_path, [], [])
        out = tmp_path / "report.json"
        assert run("classify", str(path), "--out", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0] == f"error: {path}: no alpha,f rows"
        assert not out.exists()

    @pytest.mark.parametrize("meta", [
        "# sizing=Bogus", "# S=abc", "# epsilon_alpha=inf",
        "# epsilon_alpha=nan", "# epsilon_alpha=-0.1", "# B=-7"])
    def test_bad_metadata_exits_1(self, tmp_path, meta, capsys):
        path = tmp_path / "spec.csv"
        path.write_text(f"{meta}\nalpha,f\n0.9,0.3\n1.0,0.7\n")
        assert run("classify", str(path)) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


class TestSweep:
    def test_report_with_trend(self, tmp_path):
        dust_path = tmp_path / "dust.txt"
        rng = np.random.default_rng(2)
        from mfkappa.measure import CantorDust
        write_dust(CantorDust(rng.random(10_000) ** 2), dust_path)
        prefix = str(tmp_path / "sweep")
        assert run("sweep", str(dust_path), "--boxes", "100,150",
                   "--bins", "9", "--out-prefix", prefix) == 0
        report = json.loads((tmp_path / "sweep_report.json").read_text())
        assert (tmp_path / "sweep_B100.csv").exists()
        assert (tmp_path / "sweep_B150.csv").exists()
        assert isinstance(report["trend"], dict)
        assert "approaching_bisectrix" in report["trend"]

    def test_single_valid_entry_needs_sweep(self, uniform_dust, tmp_path):
        prefix = str(tmp_path / "sw")
        assert run("sweep", str(uniform_dust), "--boxes", "5000,100",
                   "--bins", "9", "--out-prefix", prefix) == 0
        report = json.loads((tmp_path / "sw_report.json").read_text())
        assert report["trend"] == "NeedsSweep"
        bad, good = report["entries"]
        assert bad["B"] == 5000 and "SizingViolation" in bad["error"]
        assert good["csv"].endswith("_B100.csv")

    def test_warning_band_entry_warns_as_analyze(self, uniform_dust,
                                                 tmp_path, capsys):
        # S=10000: B=150 lies in the warning band, B=100 does not
        assert run("analyze", str(uniform_dust), "--boxes", "150",
                   "--bins", "9", "--out", str(tmp_path / "spec.csv")) == 0
        analyzed = capsys.readouterr().err.splitlines()
        assert run("sweep", str(uniform_dust), "--boxes", "150,100",
                   "--bins", "9", "--out-prefix", str(tmp_path / "sw")) == 0
        swept = capsys.readouterr().err.splitlines()
        assert len(swept) == 1 and swept[0].startswith("warning: B=150 ")
        assert swept == analyzed

    def test_all_entries_failing_exits_3(self, uniform_dust, tmp_path):
        prefix = str(tmp_path / "sw")
        assert run("sweep", str(uniform_dust), "--boxes", "5000,6000",
                   "--bins", "9", "--out-prefix", prefix) == 3

    def test_repeated_refused_box_count_names_each_entry(
            self, uniform_dust, tmp_path, capsys):
        prefix = str(tmp_path / "sw")
        assert run("sweep", str(uniform_dust), "--boxes", "1,1",
                   "--bins", "1", "--out-prefix", prefix) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].count("B=1: BadBoxCount: ") == 2
        assert not (tmp_path / "sw_report.json").exists()

    def test_repeated_box_count_gives_an_entry_each(self, uniform_dust,
                                                    tmp_path):
        prefix = str(tmp_path / "sw")
        assert run("sweep", str(uniform_dust), "--boxes", "100,100",
                   "--bins", "9", "--out-prefix", prefix) == 0
        report = json.loads((tmp_path / "sw_report.json").read_text())
        assert [e["B"] for e in report["entries"]] == [100, 100]
        assert all(e["error"] is None for e in report["entries"])
        assert isinstance(report["trend"], dict)

    def test_repeated_box_count_is_estimated_once(self, uniform_dust,
                                                  tmp_path, monkeypatch):
        # a repeated B is covered once, and its CSV is written once
        covered, written = [], []

        def counted_cover(dust, B):
            covered.append(B)
            return cover(dust, B)

        def counted_write(spec, path):
            written.append(path)
            write_spectrum_csv(spec, path)

        monkeypatch.setattr("mfkappa.spectrum.cover", counted_cover)
        monkeypatch.setattr("mfkappa.spectrum.write_spectrum_csv",
                            counted_write)
        assert run("sweep", str(uniform_dust), "--boxes", "100,100",
                   "--bins", "9", "--out-prefix",
                   str(tmp_path / "sw")) == 0
        assert covered == [100]
        assert written == [str(tmp_path / "sw_B100.csv")]

    @pytest.mark.parametrize("boxes, message", [
        ("10,x", "--boxes must list integers"),
        (",", "--boxes must name at least one box count")])
    def test_bad_boxes_exit_2_before_the_dust_is_read(self, tmp_path, capsys,
                                                      boxes, message):
        # the input does not exist, so reading it first would exit 1
        assert run("sweep", str(tmp_path / "missing.txt"), "--boxes", boxes,
                   "--out-prefix", str(tmp_path / "sw")) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")


def assert_reads_back_as_composed(path, dust, B, A):
    """The spectrum CSV at path reads back, field for field, as the spectrum
    of dust at (B, A) built stage by stage: cover, alpha field and
    histogram, with S and validate_sizing's verdict."""
    back = read_spectrum_csv(path)
    spec = histogram_spectrum(alpha_field(cover(dust, B)), B, A)
    status, notes = validate_sizing(dust.sample_size, B, A)
    assert back.alphas.tobytes() == spec.alphas.tobytes()
    assert back.fs.tobytes() == spec.fs.tobytes()
    assert (back.S, back.B, back.A, back.epsilon_alpha, back.sizing,
            back.sizing_notes) == (dust.sample_size, B, A,
                                   spec.epsilon_alpha, status, notes)


# --boxes entries: 0, 1, 2, small counts, negatives, counts past the array
# bound, an underscore, Arabic-Indic and full-width digits (which int()
# reads), an empty entry and a word; never a count that allocates much
BOX_ENTRIES = st.one_of(
    st.integers(2, 120).map(str),
    st.sampled_from(["0", "1", "2", "-1", "-100", "", "1_0", "\u0661\u0660",
                     "\uff12\uff10", "5000", "x", str(_MAX_COUNT + 1),
                     str(10 ** 23)]))
BIN_VALUES = st.one_of(
    st.none(), st.integers(1, 12).map(str),
    st.sampled_from(["0", "-1", "1_0", "\u0663", "", "2.5",
                     str(_MAX_COUNT + 1)]))


@pytest.fixture(scope="module")
def small_dust(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "dust.txt"
    write_dust(gen_uniform(400, "random", seed=3), path)
    return path


@settings(derandomize=True, max_examples=150, deadline=None)
@given(boxes=st.lists(BOX_ENTRIES, max_size=6), bins=BIN_VALUES,
       force=st.booleans(), joined=st.booleans())
def test_sweep_fuzz_exits_with_a_code_and_writes_what_estimate_gives(
        small_dust, boxes, bins, force, joined):
    """mfk sweep on drawn --boxes lists and --bins values, with and without
    --force, on a 400-point dust: main returns an exit code, 0 to 3, and
    every spectrum CSV a successful sweep writes reads back as the
    spectrum at its B, built stage by stage (estimate is itself a sweep,
    so it is no reference). Time budget: 10 s; 150 examples take about
    2 s."""
    boxes = ",".join(boxes)
    with tempfile.TemporaryDirectory() as out:
        prefix = os.path.join(out, "sw")
        argv = ["sweep", str(small_dust), "--out-prefix", prefix]
        argv += [f"--boxes={boxes}"] if joined else ["--boxes", boxes]
        argv += [] if bins is None else [f"--bins={bins}"]
        argv += ["--force"] if force else []
        code = main(argv)
        assert code in (0, 1, 2, 3)
        if code != 0:
            return
        with open(prefix + "_report.json") as fh:
            report = json.load(fh)
        dust = read_dust(small_dust)
        for entry in report["entries"]:
            assert (entry["csv"] is None) != (entry["error"] is None)
            if entry["csv"] is not None:
                assert_reads_back_as_composed(entry["csv"], dust,
                                              entry["B"], report["A"])


# Values of the fuzzed files and flags below. Most are good, so that most
# examples reach the end of their command; the bad ones are NaN,
# infinities, the ends of the float range, a word, an empty field, and
# counts past the array bound, never a count that allocates much.
GOOD_NUMBERS = st.one_of(st.floats(-2.0, 3.0).map(repr),
                         st.sampled_from(["0", "-0.0", "1", "1e-320",
                                          "1_0"]))
BAD_NUMBERS = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308",
                               "x", ""])
GOOD_META = {"S": ["10000", "\u0661\u0660"], "B": ["100", "1_0"],
             "A": ["9", "\u0663"], "epsilon_alpha": ["0.1", "0", "1e-320"],
             "sizing": ["Ok", "Warning", "Violation"],
             "sizing_note": ["a note", ""]}
BAD_META = {"S": ["-1", "1e3", "", str(_MAX_COUNT + 1)],
            "B": ["0", "abc", str(10 ** 23)], "A": ["-3", "9.5"],
            "epsilon_alpha": ["nan", "inf", "-1", "1e308", "x"],
            "sizing": ["ok", "Bogus", ""]}
BAD_FLAGS = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "-0.5", "1e400",
                             "x", "", str(_MAX_COUNT + 1), str(10 ** 23)])
TOLERANCES = st.sampled_from(["0.01", "0.2", "0.5", "3", "1_0", "1e-320"])
CLASSIFY_FLAGS = {"--gap-threshold": st.one_of(TOLERANCES, st.just("inf")),
                  "--segment-tol": TOLERANCES, "--cap-tol": TOLERANCES,
                  "--min-run": st.sampled_from(["0", "-1", "4", "5", "1_0"])}


def meta_lines(table):
    return st.sampled_from([f"# {key}={value}" for key, values in
                            table.items() for value in values])


def mostly(good, bad):
    """good for nine draws of ten, bad for the tenth."""
    return st.integers(0, 9).flatmap(lambda k: bad if k == 9 else good)


@st.composite
def spectrum_csvs(draw):
    """The bytes of a spectrum CSV: metadata lines, a header that may be
    missing or re-cased, rows in any order, a row of 1 to 3 fields that may
    not be numbers, a repeated row, a pair of rows at the ends of the float
    range with or without a middle row, a byte that is not UTF-8, or no
    bytes at all."""
    if draw(st.integers(0, 19)) == 19:
        return b""
    lines = draw(st.lists(mostly(meta_lines(GOOD_META),
                                 meta_lines(BAD_META)), max_size=4))
    header = ["alpha,f", "ALPHA,F", "Alpha,f"]
    lines += header[draw(st.integers(0, 9)) % 4:][:1]  # none one time in ten
    alphas = draw(st.lists(GOOD_NUMBERS, min_size=1, max_size=8,
                           unique_by=float))
    rows = [f"{a},{draw(GOOD_NUMBERS)}" for a in alphas]
    if draw(st.integers(0, 4)) == 4:
        fields = st.one_of(GOOD_NUMBERS, BAD_NUMBERS)
        rows.append(",".join(draw(st.lists(fields, min_size=1,
                                           max_size=3))))
    if rows and draw(st.integers(0, 7)) == 7:
        rows.append(draw(st.sampled_from(rows)))
    if draw(st.integers(0, 5)) == 5:
        rows += ["-1e308,0.1", "1e308,0.2"] + draw(st.sampled_from(
            [[], ["0,0.3"]]))
    lines += draw(st.permutations(rows))
    data = "".join(line + "\n" for line in lines).encode()
    if draw(st.integers(0, 9)) == 9:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@st.composite
def flags(draw, table):
    """Some of the flags of table, each with a value, mostly one of its
    good ones, as --flag=value or as two arguments."""
    argv = []
    for name in draw(st.lists(st.sampled_from(sorted(table)), unique=True)):
        value = draw(mostly(table[name], BAD_FLAGS))
        argv += ([f"{name}={value}"] if draw(st.booleans())
                 else [name, value])
    return argv


def strict_json(text):
    def refuse(name):  # Infinity and NaN are not RFC 8259 JSON
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(csv=spectrum_csvs(), argv=flags(CLASSIFY_FLAGS))
def test_classify_fuzz_exits_with_a_code_and_writes_json(csv, argv):
    """mfk classify on drawn spectrum CSVs and drawn flag values: main
    returns an exit code, 0 to 3, a report written with exit 0 is strict
    JSON, and a refusal writes no report. Time budget: 10 s; 200 examples
    take about 2 s."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "spec.csv"), os.path.join(tmp, "r.json")
        with open(path, "wb") as fh:
            fh.write(csv)
        code = main(["classify", path, *argv, "--out", out])
        assert code in (0, 1, 2, 3)
        if code == 0:
            with open(out) as fh:
                assert strict_json(fh.read())["regime"]
        else:
            assert not os.path.exists(out)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(csvs=st.lists(spectrum_csvs(), min_size=1, max_size=2),
       argv=flags({"--gap-threshold": CLASSIFY_FLAGS["--gap-threshold"]}))
def test_plot_fuzz_exits_with_a_code_and_writes_finite_svg(csvs, argv):
    """mfk plot on one or two drawn spectrum CSVs and a drawn gap
    threshold: main returns an exit code, 0 to 3, an SVG written with exit
    0 holds no NaN or infinite coordinate, and a refusal writes no SVG.
    Time budget: 10 s; 150 examples take about 2 s."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, csv in enumerate(csvs):
            paths.append(os.path.join(tmp, f"spec{k}.csv"))
            with open(paths[-1], "wb") as fh:
                fh.write(csv)
        out = os.path.join(tmp, "plot.svg")
        code = main(["plot", *paths, *argv, "--out", out])
        assert code in (0, 1, 2, 3)
        if code == 0:
            with open(out) as fh:
                svg = fh.read()
            assert svg.count('class="series"') == len(paths)
            assert "nan" not in svg and "inf" not in svg
        else:
            assert not os.path.exists(out)


# dust lines: points in [0,1], their ends, a subnormal, blank lines and
# comments; and bad ones: points outside [0,1], NaN, infinities, a word
GOOD_DUST = st.one_of(st.floats(0.0, 1.0).map(repr),
                      st.sampled_from(["0", "-0.0", "1.0", "1e-320", "0.5",
                                       "", "# kind=fixture"]))
BAD_DUST = st.sampled_from(["1.5", "-0.1", "nan", "inf", "-inf", "1_0", "x"])
COUNTS = st.one_of(st.integers(2, 40).map(str), st.just("1_0"))
BINS = st.one_of(st.integers(1, 6).map(str), st.just("\u0663"))


@st.composite
def analyze_flags(draw):
    """--auto-size, or --boxes with --bins; either may come with the others,
    a flag may be missing, and a value may be bad."""
    if draw(st.booleans()):
        both = {8: ["--boxes", "10"], 9: ["--bins", "3"]}
        return ["--auto-size", *both.get(draw(st.integers(0, 9)), [])]
    argv = []
    for name, good in (("--boxes", COUNTS), ("--bins", BINS)):
        if draw(st.integers(0, 9)) < 9:  # present nine times in ten
            argv += [name, draw(mostly(good, BAD_FLAGS))]
    return argv


@settings(derandomize=True, max_examples=150, deadline=None)
@given(lines=st.lists(GOOD_DUST, min_size=1, max_size=40),
       spread=st.sampled_from([0, 20, 60]),
       bad=mostly(st.just([]), BAD_DUST.map(lambda line: [line])),
       bad_byte=st.integers(0, 9), argv=analyze_flags(), force=st.booleans(),
       data=st.data())
def test_analyze_fuzz_exits_with_a_code_and_writes_its_spectrum(
        lines, spread, bad, bad_byte, argv, force, data):
    """mfk analyze on a small drawn dust file with drawn --boxes and --bins
    values, --auto-size and --force: main returns an exit code, 0 to 3, a
    spectrum CSV written with exit 0 reads back as the spectrum at its
    (B, A), built stage by stage, and a refusal writes no CSV. Time budget:
    10 s; 150 examples take about 2 s."""
    lines += [repr((k + 0.5) / spread) for k in range(spread)]
    lines = data.draw(st.permutations(lines + bad))
    text = "".join(line + "\n" for line in lines).encode()
    if bad_byte == 9:
        text = b"0.5\n0.\xff5\n" + text
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "dust.txt"), os.path.join(tmp, "s.csv")
        with open(path, "wb") as fh:
            fh.write(text)
        argv += ["--force"] if force else []
        code = main(["analyze", path, *argv, "--out", out])
        assert code in (0, 1, 2, 3)
        if code == 0:
            dust = read_dust(path)
            if "--auto-size" in argv:
                B, A = auto_size(dust.sample_size)
            else:  # int reads 1_0 and Arabic-Indic digits, as argparse does
                B, A = (int(argv[argv.index(flag) + 1])
                        for flag in ("--boxes", "--bins"))
            assert_reads_back_as_composed(out, dust, B, A)
        else:
            assert not os.path.exists(out)


# generate's values: sizes small or past their guard, never a size that
# allocates much; NaN, infinities, 2**63, negatives, an underscore,
# Arabic-Indic digits and empty values
OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
RATIOS = st.floats(0.0, 0.5, exclude_min=True)  # r + r2 <= 1
PAST_GUARD = [str(_MAX_COUNT + 1), str(2 ** 63), str(10 ** 23)]
ODD_VALUES = ["nan", "inf", "-inf", "-1", "-0.5", "0", "", "1_0", "\u0663",
              "2.5", "x"]
SIZES = mostly(st.integers(1, 40).map(str),
               st.sampled_from(PAST_GUARD + ODD_VALUES))
GENERATE_FLAGS = {
    "selfsimilar": {
        "--p": mostly(OPEN_UNIT.map(repr), st.sampled_from(ODD_VALUES)),
        "--r": mostly(RATIOS.map(repr), st.sampled_from(ODD_VALUES)),
        "--r2": mostly(RATIOS.map(repr), st.sampled_from(ODD_VALUES)),
        "--depth": mostly(st.integers(1, 8).map(str), st.sampled_from(
            ["700", "1" + "0" * 400, *PAST_GUARD, *ODD_VALUES])),
        "--S": SIZES, "--seed": SIZES},
    "superposed": {"--mix": mostly(OPEN_UNIT.map(repr),
                                   st.sampled_from(ODD_VALUES)),
                   "--disjoint": st.none()},
    "farey": {"--Q": SIZES},
    "uniform": {"--S": SIZES, "--seed": SIZES, "--mode": mostly(
        st.sampled_from(["random", "equispaced"]),
        st.sampled_from(["bogus", ""]))},
}
STRAY_FLAGS = sorted({flag for flags in GENERATE_FLAGS.values()
                      for flag in flags} | {"--spec", "--bogus"})
SPEC_FIELDS = {  # key: (good values, bad values)
    "p": (st.sampled_from([[0.5, 0.5], [0.3, 0.7]]), st.sampled_from(
        [[1, 1], [0.5], [0.5, 0.5, 0.0], "x", 0.5, [True, False], None,
         [math.nan, 0.5], {"a": 1}])),
    "r": (st.sampled_from([[1 / 3, 1 / 3], [0.5, 0.25]]), st.sampled_from(
        [[0.6, 0.6], [0.0, 0.5], ["a", "b"], 0.3, [math.inf, 0.1], None])),
    "depth": (st.integers(1, 6), st.sampled_from(
        [0, -1, 700, 10 ** 400, 2.5, 4.0, 1e308, True, "4", None])),
    "S": (st.one_of(st.integers(1, 40), st.just(10.0)), st.sampled_from(
        [0, -1, 1.5, 1e30, True, "10", None, math.inf, _MAX_COUNT + 1,
         2 ** 63])),
    "seed": (st.integers(0, 9), st.sampled_from(
        [-1, 1.5, True, 2 ** 63, None, "3"])),
}


@st.composite
def spec_files(draw):
    """The bytes of a cascade spec file, good three times in four. A broken
    one is a JSON object whose fields may be missing, extra, bools, floats
    as counts, sizes past their guard or values of the wrong type; text
    that is not a JSON object; or a byte that is not UTF-8."""
    if draw(st.integers(0, 3)) < 3:
        return json.dumps({key: draw(good) for key, (good, _) in
                           SPEC_FIELDS.items()}).encode()
    if draw(st.integers(0, 9)) == 9:
        return draw(st.sampled_from([b"", b"{", b"[0.5, 0.5]", b"null",
                                     b'"p"', b"{'p': 1}"]))
    spec = {key: draw(mostly(good, bad))
            for key, (good, bad) in SPEC_FIELDS.items()
            if draw(st.integers(0, 9)) < 9}  # each present nine times in ten
    if draw(st.integers(0, 9)) == 9:
        spec["sed"] = 5
    data = json.dumps(spec).encode()
    if draw(st.integers(0, 9)) == 9:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@st.composite
def generate_argv(draw):
    """generate, a kind and some of its flags, mostly with good values; now
    and then a flag the kind does not take. Spec files are {a} and {b}."""
    kind = draw(st.sampled_from(sorted(GENERATE_FLAGS)))
    table = GENERATE_FLAGS[kind]
    argv = ["generate", kind]
    if kind == "superposed":
        for flag, name in (("--spec-a", "{a}"), ("--spec-b", "{b}")):
            k = draw(st.integers(0, 19))
            if k < 19:  # missing one time in twenty
                argv += [flag, "{missing}" if k == 18 else name]
    chosen = draw(st.lists(st.sampled_from(sorted(table)), unique=True))
    # a size is always given: the defaults, 10,000 points and Q = 200, would
    # take a tenth of a second to write and read back
    chosen += [f for f in ("--S", "--Q") if f in table and f not in chosen]
    for flag in chosen:
        value = draw(table[flag])
        argv += ([flag] if value is None else
                 [f"{flag}={value}"] if draw(st.booleans())
                 else [flag, value])
    if draw(st.integers(0, 9)) == 9:
        argv += [draw(st.sampled_from(
            [f for f in STRAY_FLAGS if f not in table])), "5"]
    return kind, argv


@settings(derandomize=True, max_examples=200, deadline=None)
@given(drawn=generate_argv(), spec_a=spec_files(), spec_b=spec_files())
def test_generate_fuzz_exits_with_a_code_and_writes_a_dust(drawn, spec_a,
                                                           spec_b):
    """mfk generate of each kind with drawn flag values and drawn spec
    files: main returns an exit code, 0 to 3, a dust written with exit 0
    reads back through read_dust with its kind in the header, and a
    refusal writes no file. Sizes are drawn small or past their guard, so
    no draw allocates much. Time budget: 10 s; 200 examples take about
    2 s."""
    kind, argv = drawn
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: os.path.join(tmp, f"{name}.json")
                 for name in ("a", "b", "missing")}
        for name, data in (("a", spec_a), ("b", spec_b)):
            with open(files[name], "wb") as fh:
                fh.write(data)
        out = os.path.join(tmp, "dust.txt")
        code = main([a.format(**files) for a in argv] + ["--out", out])
        assert code in (0, 1, 2, 3)
        if code == 0:
            assert read_dust(out).sample_size >= 1
            assert read_rows(out)[0][0] == ("kind", kind)
        else:
            assert not os.path.exists(out)


class TestPlot:
    def spectra_files(self, tmp_path):
        paths = []
        for B in (100, 150):
            spec = estimate(gen_uniform(10_000, "random", seed=B), B, 9,
                            force=True)
            path = tmp_path / f"spec{B}.csv"
            write_spectrum_csv(spec, path)
            paths.append(str(path))
        return paths

    def test_structure(self, tmp_path):
        paths = self.spectra_files(tmp_path)
        out = tmp_path / "plot.svg"
        assert run("plot", *paths, "--out", str(out)) == 0
        svg = out.read_text()
        assert svg.count('class="series"') == 2
        assert svg.count('class="bisectrix"') == 1
        assert 'data-label="B=100"' in svg
        assert 'data-label="B=150"' in svg
        assert svg.count('class="legend"') == 2

    def test_fragmented_series_gets_two_polylines(self, tmp_path):
        path = tmp_path / "frag.csv"
        lines = ["# S=100", "# B=100", "# A=6", "# epsilon_alpha=0.0",
                 "# sizing=Ok", "alpha,f",
                 "0.5,0.3", "0.55,0.5", "0.6,0.3",
                 "1.2,0.2", "1.25,0.4", "1.3,0.2"]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "plot.svg"
        assert run("plot", str(path), "--out", str(out)) == 0
        svg = out.read_text()
        series = svg[svg.index('<g class="series"'):svg.index("</g>")]
        assert series.count("<polyline") == 2

    def test_no_spectrum_refused(self):
        with pytest.raises(errors.MfkError,
                           match="need at least one spectrum") as exc:
            render_spectra_svg([])
        assert exc.value.exit_code == 1

    def test_array_map_writes_the_per_point_bytes(self):
        """render_spectra_svg maps each spectrum's coordinates as arrays and
        formats each once: the bytes are the per-point renderer's, on
        spectra with fragments and lone points, one to four to a plot."""
        rng = np.random.default_rng(36)
        broken = lone = 0
        for _ in range(60):
            spectra = []
            for _ in range(int(rng.integers(1, 5))):
                n = int(rng.integers(1, 40))
                scale = float(rng.choice([1e-3, 1.0, 1e3]))
                steps = rng.choice([0.01, 0.05, 0.3, 1.0], n) \
                    * rng.uniform(0.5, 1.5, n)
                alphas = scale * (rng.uniform(-1, 3) + np.cumsum(steps))
                fs = np.where(rng.random(n) < 0.2, 0.0,
                              rng.uniform(0, 1.2, n))
                spectra.append(Spectrum(alphas, fs, B=int(rng.integers(2,
                                                                       999))))
            gap = [None, 0.1, 0.5][int(rng.integers(3))]
            assert render_spectra_svg(spectra, gap) == \
                render_per_point(spectra, gap)
            for spec in spectra:
                frag = detect_fragments(spec, gap)
                broken += len(frag.fragments) > 1
                lone += len(frag.isolated_points) > 0
        assert broken > 20 and lone > 20


def render_per_point(spectra, gap_threshold=None):
    """render_spectra_svg as it mapped and formatted each point on its own,
    on its polyline and again for its circle: the reference for the array
    map."""
    width, height, margin = svgplot._WIDTH, svgplot._HEIGHT, svgplot._MARGIN
    lo, hi = svgplot._limits(spectra)
    span = hi - lo
    inner = width - 2 * margin

    def sx(a):
        return margin + (a - lo) / span * inner

    def sy(f):
        return height - margin - (f - lo) / span * inner

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line class="axis" x1="{margin}" y1="{height - margin}" '
        f'x2="{width - margin}" y2="{height - margin}" stroke="black"/>',
        f'<line class="axis" x1="{margin}" y1="{margin}" '
        f'x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" '
        'text-anchor="middle">alpha</text>',
        f'<text x="14" y="{height // 2}" text-anchor="middle" '
        f'transform="rotate(-90 14 {height // 2})">f(alpha)</text>',
        f'<line class="bisectrix" x1="{sx(lo):.2f}" y1="{sy(lo):.2f}" '
        f'x2="{sx(hi):.2f}" y2="{sy(hi):.2f}" '
        'stroke="#999" stroke-dasharray="4 3"/>',
    ]
    for k, spec in enumerate(spectra):
        color = svgplot._COLORS[k % len(svgplot._COLORS)]
        label = f"B={spec.B}"
        frag = detect_fragments(spec, gap_threshold)
        out.append(f'<g class="series" data-label="{label}">')
        alphas, fs = spec.alphas, spec.fs
        for i, j in frag.fragments:
            if j > i:
                pts = " ".join(f"{sx(a):.2f},{sy(f):.2f}"
                               for a, f in zip(alphas[i:j + 1], fs[i:j + 1]))
                out.append(f'<polyline points="{pts}" fill="none" '
                           f'stroke="{color}"/>')
        for a, f in zip(alphas, fs):
            out.append(f'<circle cx="{sx(a):.2f}" cy="{sy(f):.2f}" r="3" '
                       f'fill="{color}"/>')
        out.append("</g>")
        out.append(f'<text class="legend" x="{width - margin - 90}" '
                   f'y="{margin + 16 * (k + 1)}" fill="{color}">'
                   f'{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


# alphas whose squares underflow
UNDERFLOWING = [0.0, 5.635350551177872e-171, 2.5723126151746734e-239, 1e-320]


def test_refused_write_names_the_out_path(tmp_path, capsys):
    """An --out in a missing directory exits 1, and the one error line names
    that path, not the temporary file atomic_write writes first."""
    dust, csv = tmp_path / "d.txt", tmp_path / "s.csv"
    assert run("generate", "uniform", "--S", "1000", "--out", str(dust)) == 0
    assert run("analyze", str(dust), "--boxes", "100", "--bins", "3",
               "--force", "--out", str(csv)) == 0
    out = str(tmp_path / "missing" / "x.out")
    for argv in (["generate", "uniform", "--S", "1000"],
                 ["analyze", str(dust), "--boxes", "100", "--bins", "3",
                  "--force"],
                 ["classify", str(csv)]):
        capsys.readouterr()
        assert run(*argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert ".mfk-" not in err
        assert err == f"error: [Errno 2] No such file or directory: {out!r}\n"


class TestErrorContract:
    """Each error class carries its exit code; bad flags exit 2 with one
    'error:' line and no traceback."""

    DOCUMENTED = {errors.SpecError: 2, errors.BadBoxCount: 2,
                  errors.SizingViolation: 3}

    def test_exit_code_on_every_error_class(self):
        seen, todo = [], [errors.MfkError]
        while todo:
            cls = todo.pop()
            seen.append(cls)
            todo.extend(cls.__subclasses__())
        assert set(self.DOCUMENTED) < set(seen)
        for cls in seen:
            assert cls.exit_code == self.DOCUMENTED.get(cls, 1), cls.__name__

    @pytest.mark.parametrize("argv", [
        ["analyze", "{dust}", "--boxes", "100", "--bins", "0"],
        ["sweep", "{dust}", "--boxes", "10,x", "--out-prefix", "{tmp}/sw"],
        ["analyze", "{dust}", "--boxes", "1", "--bins", "9", "--force"],
        ["classify", "{csv}", "--gap-threshold", "0"],
        ["classify", "{csv}", "--segment-tol", "nan"],
        ["classify", "{csv}", "--cap-tol", "nan"],
        ["classify", "{csv}", "--segment-tol", "-1"],
        ["classify", "{csv}", "--cap-tol", "-1"],
        ["classify", "{csv}", "--segment-tol", "inf"],
        ["classify", "{csv}", "--cap-tol", "inf"],
        ["generate", "selfsimilar", "--p", "nan", "--depth", "4", "--S",
         "10", "--out", "{tmp}/nan.txt"],
        ["generate", "selfsimilar", "--r", "nan", "--depth", "4", "--S",
         "10", "--out", "{tmp}/nan.txt"],
        ["sweep", "{dust}", "--boxes", "100,150", "--bins", "0",
         "--out-prefix", "{tmp}/sw"],
        ["sweep", "{dust}", "--boxes", "1", "--bins", "1",
         "--out-prefix", "{tmp}/sw"],
        ["generate", "selfsimilar", "--seed", "-1", "--out", "{tmp}/s.txt"],
        ["generate", "uniform", "--mode", "random", "--seed", "-1",
         "--out", "{tmp}/u.txt"],
        ["generate", "uniform", "--mode", "equispaced", "--seed", "7",
         "--out", "{tmp}/u.txt"],
        ["generate", "uniform", "--seed", "0", "--out", "{tmp}/u.txt"],
        ["generate", "selfsimilar", "--depth", "700", "--S", "10",
         "--out", "{tmp}/s.txt"],
        ["generate", "selfsimilar", "--depth", "1" + "0" * 400, "--S", "10",
         "--out", "{tmp}/s.txt"],
        ["generate", "selfsimilar", "--S", "10000000000000000000",
         "--out", "{tmp}/s.txt"],
        ["generate", "uniform", "--mode", "random", "--S",
         "10000000000000000000", "--out", "{tmp}/u.txt"],
        ["analyze", "{dust}", "--boxes", "99999999999999999999999",
         "--bins", "3", "--force"],
        ["analyze", "{dust}", "--boxes", "100",
         "--bins", "99999999999999999999999", "--force"],
        ["sweep", "{dust}", "--boxes", "99999999999999999999999",
         "--bins", "3", "--force", "--out-prefix", "{tmp}/sw"],
        ["generate", "farey", "--Q", "100000000000000000000",
         "--out", "{tmp}/f.txt"],
        ["analyze", "{dust}", "--boxes", "1", "--bins", "9"],
        ["analyze", "{dust}", "--boxes", "0", "--bins", "3"],
        ["analyze", "{dust}", "--boxes", "-4", "--bins", "3"],
        ["analyze", "{dust}", "--boxes", "5000", "--bins", "0"],
        ["sweep", "{dust}", "--boxes", "5000,6000", "--bins", "-1",
         "--out-prefix", "{tmp}/sw"],
        ["classify", "{csv}", "--min-run", "99999999999999999999"],
    ], ids=["bins-0", "boxes-not-int", "boxes-1", "gap-threshold-0",
            "segment-tol-nan", "cap-tol-nan", "segment-tol-negative",
            "cap-tol-negative", "segment-tol-inf", "cap-tol-inf",
            "selfsimilar-p-nan", "selfsimilar-r-nan",
            "sweep-bins-0", "sweep-boxes-1", "selfsimilar-seed-negative",
            "uniform-seed-negative", "equispaced-seed",
            "equispaced-seed-0", "selfsimilar-depth-underflows",
            "selfsimilar-depth-past-float",
            "selfsimilar-S-past-intp", "uniform-S-past-intp",
            "boxes-past-intp", "bins-past-intp", "sweep-boxes-past-intp",
            "farey-Q-past-intp", "boxes-1-unforced", "boxes-0",
            "boxes-negative", "bins-0-violating", "sweep-bins-negative",
            "min-run-past-intp"])
    def test_bad_flag_exits_2(self, argv, uniform_dust, tmp_path):
        csv = tmp_path / "spec.csv"
        csv.write_text("alpha,f\n0.9,0.3\n1.0,0.7\n1.1,0.2\n")
        src = os.path.dirname(os.path.dirname(mfkappa.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        argv = [a.format(dust=uniform_dust, tmp=tmp_path, csv=csv)
                for a in argv]
        proc = subprocess.run([sys.executable, "-m", "mfkappa.cli", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("kind", [
        ["uniform", "--mode", "random"], ["uniform"], ["selfsimilar"]],
        ids=["uniform-random", "uniform-equispaced", "selfsimilar"])
    def test_unallocatable_sample_exits_1(self, kind, tmp_path):
        # 1e18 points fit an index but no address space: the allocation
        # fails at once, and main reports it as one line
        out = tmp_path / "out.txt"
        src = os.path.dirname(os.path.dirname(mfkappa.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "mfkappa.cli", "generate", *kind,
             "--S", str(10 ** 18), "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not out.exists()

    def test_farey_past_memory_fails_at_once(self, tmp_path):
        # the dust is allocated once, at its point bound, before the fill:
        # 5e9 points (40 GB) at Q = 1e5 and 2e14 at Q = 2e7, so under a
        # 1 GiB cap that one allocation fails at once
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        out = tmp_path / "f.txt"
        src = os.path.dirname(os.path.dirname(mfkappa.__file__))
        # one BLAS thread, so that thread stacks fit the cap on any host
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        for Q, timeout in [(100_000, 5), (20_000_000, 2)]:
            proc = subprocess.run(
                [sys.executable, "-m", "mfkappa.cli", "generate", "farey",
                 "--Q", str(Q), "--out", str(out)], capture_output=True,
                text=True, env=env, preexec_fn=cap_address_space,
                timeout=timeout)
            assert proc.returncode == 1
            assert "Traceback" not in proc.stderr
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert not out.exists()

    @pytest.mark.parametrize("text", [
        '{"p": [0.5, 0.5], "depth": 4, "S": 10}',
        '{"p": [0.5, 0.5], "r": [0.3, 0.3], "dep',
        '[0.5, 0.5]',
        '{"p": [0.5, 0.5], "r": [0.3, 0.3], "depth": "x", "S": 10}',
        '{"p": [0.5, 0.5], "r": [0.3, 0.3], "depth": 4, "S": 10, "seed": -3}',
        '{"p": [0.5, 0.5], "r": [0.3, 0.3], "depth": 12.7, "S": 100}',
        '{"p": [0.5, 0.5], "r": [0.3, 0.3], "depth": 4, "S": 100.9}',
        '{"p": [0.5, 0.5], "r": [0.3, 0.3], "depth": 4, "S": 10, "seed": 1.5}',
        '{"p": [0.5, 0.5], "r": [0.3, 0.3], "depth": 4, "S": Infinity}',
        '{"p": [0.5, 0.5], "r": [0.3, 0.3], "depth": true, "S": 10}',
        '{"p": [0.5, 0.5], "r": [0.3, 0.3], "depth": 4, "S": true}',
        '{"p": [0.5, 0.5], "r": [0.3, 0.3], "depth": 4, "S": 10, '
        '"seed": true}',
        '{"p": [0.5, 0.5], "r": [0.3, 0.3], "depth": 4, "S": 10, "sed": 5}',
        '{"p": [0.5, 0.5], "r": [0.3, 0.3], "S": 10}',
        '{"p": [0.5, 0.5], "r": [0.3, 0.3], "depth": 100000, "S": 10}',
        '{"p": [0.5, 0.5], "r": [0.3, 0.3], "depth": 1' + '0' * 400
        + ', "S": 10}',
    ], ids=["missing-r", "truncated", "json-list", "depth-not-int",
            "seed-negative", "depth-fractional", "S-fractional",
            "seed-fractional", "S-infinite", "depth-bool", "S-bool",
            "seed-bool", "unknown-key", "missing-depth", "depth-underflows",
            "depth-past-float"])
    @pytest.mark.parametrize("flag", ["--spec-b", "--spec-a"])
    def test_bad_spec_file_exits_2(self, text, flag, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        good = tmp_path / "good.json"
        good.write_text('{"p": [0.5, 0.5], "r": [0.3, 0.3], "depth": 4, '
                        '"S": 10}')
        other = "--spec-a" if flag == "--spec-b" else "--spec-b"
        kind = ["superposed", flag, str(bad), other, str(good)]
        out = tmp_path / "out.txt"
        src = os.path.dirname(os.path.dirname(mfkappa.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "mfkappa.cli", "generate", *kind,
             "--out", str(out)], capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {bad}")
        assert not out.exists()

    @pytest.mark.parametrize("argv,words", [
        (["analyze", "{dust}", "--boxes", "5000", "--bins", "9"],
         ["sizing violation", "--force"]),
        (["sweep", "{dust}", "--boxes", "5000,6000", "--bins", "9",
          "--out-prefix", "{tmp}/sw"], ["B=5000", "B=6000"]),
    ], ids=["analyze", "sweep"])
    def test_sizing_refusal_is_one_error_line(self, argv, words, uniform_dust,
                                              tmp_path, capsys):
        argv = [a.format(dust=uniform_dust, tmp=tmp_path) for a in argv]
        assert run(*argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert all(w in err[0] for w in words)

    # Each count flag at least - 1, at the largest count and one past it.
    # The first and last are refused (exit 2). At the largest count the
    # allocation, 4.6e18 bytes or more, is past any address space and fails
    # at once (exit 1). A superposed count n is the union of a spec file
    # of S = n - 1 and one of S = 1.
    FAREY_Q = max(Q for Q in range(math.isqrt(2 * _MAX_COUNT) - 2,
                                   math.isqrt(2 * _MAX_COUNT) + 3)
                  if 2 + Q * (Q - 1) // 2 <= _MAX_COUNT)
    COUNT_FLAGS = {
        "uniform-equispaced-S": (["generate", "uniform", "--S", "{n}",
                                  "--out", "{tmp}/u.txt"], 1, _MAX_COUNT),
        "uniform-random-S": (["generate", "uniform", "--mode", "random",
                              "--S", "{n}", "--out", "{tmp}/u.txt"],
                             1, _MAX_COUNT),
        "selfsimilar-S": (["generate", "selfsimilar", "--S", "{n}",
                           "--out", "{tmp}/s.txt"], 1, _MAX_COUNT),
        "superposed-S": (["generate", "superposed", "--spec-a", "{tmp}/a.json",
                          "--spec-b", "{tmp}/b.json", "--out",
                          "{tmp}/s.txt"], 2, _MAX_COUNT),
        "farey-Q": (["generate", "farey", "--Q", "{n}", "--out",
                     "{tmp}/f.txt"], 2, FAREY_Q),
        "analyze-boxes": (["analyze", "{dust}", "--boxes", "{n}", "--bins",
                           "3", "--force"], 2, _MAX_COUNT),
        "sweep-boxes": (["sweep", "{dust}", "--boxes", "{n}", "--bins", "3",
                         "--force", "--out-prefix", "{tmp}/sw"],
                        2, _MAX_COUNT),
        "analyze-bins": (["analyze", "{random}", "--boxes", "100", "--bins",
                          "{n}", "--force"], 1, _MAX_COUNT),
    }

    @pytest.mark.parametrize("flag,at,code", [
        pytest.param(flag, at, code, id=f"{flag}-{at}")
        for flag in COUNT_FLAGS
        for at, code in (("below", 2), ("bound", 1), ("past", 2))])
    def test_count_flag_boundary(self, flag, at, code, uniform_dust,
                                 tmp_path, capsys):
        argv, least, bound = self.COUNT_FLAGS[flag]
        n = {"below": least - 1, "bound": bound, "past": bound + 1}[at]
        spec = '{{"p": [0.5, 0.5], "r": [0.3, 0.3], "depth": 4, "S": {}}}'
        (tmp_path / "a.json").write_text(spec.format(n - 1))
        (tmp_path / "b.json").write_text(spec.format(1))
        random = tmp_path / "random.txt"
        assert run("generate", "uniform", "--mode", "random", "--S", "10000",
                   "--out", str(random)) == 0
        argv = [a.format(n=n, tmp=tmp_path, dust=uniform_dust, random=random)
                for a in argv]
        assert run(*argv) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("command,text", [
        (["analyze", "{path}", "--boxes", "2", "--bins", "1"],
         b"0.25\n0.\xff5\n0.75\n"),
        (["sweep", "{path}", "--boxes", "2", "--bins", "1",
          "--out-prefix", "{tmp}/sw"], b"0.25\n0.\xff5\n0.75\n"),
        (["classify", "{path}"], b"alpha,f\n0.9,0.\xff3\n1.0,0.7\n"),
        (["plot", "{path}", "--out", "{tmp}/p.svg"],
         b"alpha,f\n0.9,0.\xff3\n1.0,0.7\n"),
    ], ids=["analyze", "sweep", "classify", "plot"])
    def test_byte_not_utf8_names_its_line(self, command, text, tmp_path,
                                          capsys):
        path = tmp_path / "input.txt"
        path.write_bytes(text)
        argv = [a.format(path=path, tmp=tmp_path) for a in command]
        assert run(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}:2: ")

    @pytest.mark.parametrize("rows", [
        ["-1e308,0.1", "1e308,0.2"],
        ["-1e308,0.1", "0,0.3", "1e308,0.2"],
    ], ids=["ends", "ends-and-middle"])
    @pytest.mark.parametrize("command", ["classify", "plot"])
    def test_span_past_the_float_range_exits_1(self, command, rows, tmp_path,
                                               capsys):
        # alpha's span overflows to inf: classify's delta_alpha was inf,
        # which strict JSON cannot hold, and plot wrote NaN coordinates
        path = tmp_path / "spec.csv"
        path.write_text("alpha,f\n" + "".join(row + "\n" for row in rows))
        out = tmp_path / "out"
        assert run(command, str(path), "--out", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {path}: spectrum points must be")
        assert not out.exists()


    @pytest.mark.parametrize("alphas", [
        UNDERFLOWING, [a / max(UNDERFLOWING) * 1e160 for a in UNDERFLOWING],
    ], ids=["squares-underflow", "scaled-to-1e160"])
    @pytest.mark.parametrize("command", ["classify", "plot"])
    def test_alphas_whose_squares_leave_the_float_range_exit_1(
            self, command, alphas, tmp_path, capsys):
        # classify's line fits square these alphas: below, it warned of a
        # 0/0 slope and ended in LinAlgError; scaled up, it warned of
        # overflow
        path = tmp_path / "spec.csv"
        path.write_text("alpha,f\n" + "".join(f"{a!r},0.0\n" for a in alphas))
        out = tmp_path / "out"
        assert run(command, str(path), "--out", str(out)) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {path}: spectrum points must be")
        assert not out.exists()


def test_byte_not_utf8_in_a_comment_is_ignored(tmp_path):
    path = tmp_path / "dust.txt"
    path.write_bytes(b"# caf\xe9\n" + b"".join(
        b"%r\n" % ((k + 0.5) / 100) for k in range(100)))
    assert run("analyze", str(path), "--boxes", "10", "--bins", "3",
               "--out", str(tmp_path / "spec.csv")) == 0


def test_one_point_report_is_strict_json(tmp_path, capsys):
    # one point: no spacing to split, so the default threshold is infinite
    path = tmp_path / "spec.csv"
    path.write_text("alpha,f\n0.7,0.0\n")
    assert run("classify", str(path)) == 0

    def refuse(name):  # Infinity and NaN are not RFC 8259 JSON
        raise ValueError(f"{name} is not JSON")
    doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert doc["fragmentation"]["gap_threshold"] is None
    assert doc["config"]["gap_threshold"] is None


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(mfkappa.__file__))
    code = ("import sys, mfkappa.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_warning_to_a_non_terminal_has_no_escape_codes(uniform_dust,
                                                      tmp_path, capsys):
    # S=10000 with B=150 lies in the warning band sqrt(S) < B <= 2 sqrt(S)
    assert run("analyze", str(uniform_dust), "--boxes", "150", "--bins", "9",
               "--out", str(tmp_path / "spec.csv")) == 0
    err = capsys.readouterr().err
    assert "warning:" in err
    assert "\x1b[" not in err
