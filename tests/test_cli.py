import argparse
import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

import mfkappa
from mfkappa import errors
from mfkappa.cli import build_parser, main
from mfkappa.measure import _MAX_COUNT, read_rows, write_dust
from mfkappa.oracles import gen_uniform
from mfkappa.spectrum import estimate, write_spectrum_csv


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
        calls = []

        def counted(dust, B, A, force=False):
            calls.append(B)
            return estimate(dust, B, A, force=force)

        monkeypatch.setattr("mfkappa.spectrum.estimate", counted)
        assert run("sweep", str(uniform_dust), "--boxes", "100,100",
                   "--bins", "9", "--out-prefix",
                   str(tmp_path / "sw")) == 0
        assert calls == [100]


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
