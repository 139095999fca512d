"""Old == new for the text codec.

read_rows hands each raw line to parse, reuses the row of a line equal to
the last one parse accepted, and classifies only the lines parse rejects;
write_dust and format_spectrum_csv write format_header's lines and then
their rows, write_dust in chunks of _CHUNK_LINES rows with each run of equal
points converted once. The references below are the codec as it was
before: strip, classify and parse every line, and each writer spelling out
the '# key=value' syntax and every line by hand. Every line must read the
same and every file must come out byte-identical.
"""

from itertools import groupby

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mfkappa import measure
from mfkappa.errors import FormatError
from mfkappa.measure import CantorDust, read_dust, read_rows, write_dust
from mfkappa.spectrum import (Spectrum, _alpha_f_row, estimate,
                              format_spectrum_csv)


def reference_read_rows(path, parse=float, header=None):
    pairs = []
    rows = []
    saw_header = header is None
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, eq, val = line.lstrip("#").partition("=")
                if eq:
                    pairs.append((key.strip(), val.strip()))
                continue
            try:
                rows.append(parse(line))
            except ValueError:
                if header is not None and line.lower() == header:
                    saw_header = True
                    continue
                raise FormatError(f"{path}:{lineno}: unreadable row: {line!r}")
    if not saw_header:
        raise FormatError(f"{path}: no {header!r} header line")
    return pairs, rows


def reference_format_dust(dust, header=None):
    lines = []
    for key, val in (header or {}).items():
        lines.append(f"# {key}={val}")
    lines.extend(repr(float(p)) for p in dust.points)
    return "\n".join(lines) + "\n"


def reference_format_spectrum_csv(spec):
    lines = [
        f"# S={spec.S}",
        f"# B={spec.B}",
        f"# A={spec.A}",
        f"# epsilon_alpha={spec.epsilon_alpha!r}",
        f"# sizing={spec.sizing.value}",
    ]
    for msg in spec.sizing_notes:
        lines.append(f"# sizing_note={msg}")
    lines.append("alpha,f")
    for a, f in zip(spec.alphas, spec.fs):
        lines.append(f"{float(a)!r},{float(f)!r}")
    return "\n".join(lines) + "\n"


# str.strip drops \x1c-\x1f but float keeps them; the rest both drop
PAD = st.text(" \t\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000",
              max_size=3)
NUMBER = st.one_of(st.floats().map(repr),
                   st.sampled_from(["nan", "-inf", "1_0", "\u0660.5", "+.5"]))
GARBAGE = st.one_of(
    st.sampled_from(["1e", "0x1p-3", "--1", "abc", "1,2,3", ",", "0.5,",
                     "alpha;f"]),
    st.text(st.characters(exclude_categories=["Cs"]), max_size=6))
HEADER_LINE = st.sampled_from(["alpha,f", "ALPHA,F", "Alpha,f"])


@st.composite
def padded(draw, text):
    return draw(PAD) + draw(text) + draw(PAD)


@st.composite
def comments(draw):
    key = draw(st.sampled_from(["S", "sizing_note", " kappa ", "a b", ""]))
    eq = draw(st.sampled_from(["=", " = ", "", "=="]))
    value = draw(st.one_of(NUMBER, GARBAGE))
    return draw(st.sampled_from(["#", "##", "# "])) + key + eq + value


CSV_ROW = st.builds("{},{}".format, padded(NUMBER), padded(NUMBER))
DUST_LINES = st.one_of(padded(NUMBER), PAD, padded(comments()))
CSV_LINES = st.one_of(CSV_ROW, PAD, padded(comments()), padded(HEADER_LINE))


@st.composite
def tables(draw):
    """A dust or CSV table: rows padded or not, blank and whitespace-only
    lines, comments with repeated keys, with '=' or without, header lines
    in any case, and in half the tables one line from anywhere. Most lines
    come from a pool of a few, so equal lines often sit next to each other
    or with other lines between them."""
    parse, header, lines = draw(st.sampled_from([
        (float, None, DUST_LINES), (_alpha_f_row, "alpha,f", CSV_LINES)]))
    pool = draw(st.lists(lines, min_size=1, max_size=4))
    table = draw(st.lists(st.one_of(st.sampled_from(pool), lines),
                          max_size=12))
    if draw(st.booleans()):
        stray = st.one_of(GARBAGE, DUST_LINES, CSV_LINES)
        table.insert(draw(st.integers(0, len(table))), draw(stray))
    return table, parse, header


def outcome(reader, path, parse, header):
    try:
        return repr(reader(path, parse, header))  # repr tells -0.0 and nan
    except FormatError as exc:
        return f"FormatError: {exc}"


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tables(), st.booleans())
def test_read_rows_matches_reference(tmp_path, table, final_newline):
    lines, parse, header = table
    path = tmp_path / "table.txt"
    path.write_text("\n".join(lines) + ("\n" if final_newline else ""))
    assert (outcome(read_rows, path, parse, header)
            == outcome(reference_read_rows, path, parse, header))


@pytest.mark.parametrize("text, parse, header, expected", [
    ("0.5\n# c=1\n0.5\n", float, None, ([("c", "1")], [0.5, 0.5])),
    ("0.5\n\n \n0.5\n", float, None, ([], [0.5, 0.5])),
    # float refuses \x1c, so the middle line is stripped and parsed again
    ("0.5\n0.5\x1c\n0.5\n", float, None, ([], [0.5, 0.5, 0.5])),
    # a line parse refuses is never reused, even when it repeats
    ("0.5\n# c=1\n# c=1\n0.5\n", float, None,
     ([("c", "1"), ("c", "1")], [0.5, 0.5])),
    ("0.5\n0.7\x1c\n0.7\x1c\n", float, None, ([], [0.5, 0.7, 0.7])),
    ("0.1,0.2\nalpha,f\n0.1,0.2\n", _alpha_f_row, "alpha,f",
     ([], [(0.1, 0.2), (0.1, 0.2)])),
    ("0.5\n0.5", float, None, ([], [0.5, 0.5])),  # last line unterminated
    ("-0.0\n0.0\n0.0\n-0.0", float, None, ([], [-0.0, 0.0, 0.0, -0.0])),
    ("0.5\n0.5\n0.5\n0.5,\n", float, None, "path:4: unreadable row: '0.5,'"),
    ("0.5\n0.5\n# c\n0.5\nnan x\n0.5\n", float, None,
     "path:5: unreadable row: 'nan x'"),
], ids=["after-comment", "after-blank", "after-refused-line",
        "repeated-comment", "repeated-refused-line", "after-header",
        "unterminated-last", "signed-zeros", "refusal-after-run",
        "refusal-after-split-run"])
def test_read_rows_around_a_run_of_equal_lines(tmp_path, text, parse,
                                               header, expected):
    path = tmp_path / "table.txt"
    path.write_text(text)
    got = outcome(read_rows, path, parse, header)
    assert got == outcome(reference_read_rows, path, parse, header)
    if isinstance(expected, str):
        assert got == f"FormatError: {path}{expected[len('path'):]}"
    else:
        assert got == repr(expected)


EDGE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308,
                     np.nextafter(1.0, 0.0), 0.1, 1 / 3]),
    st.floats(0.0, 1.0))


@st.composite
def dusts(draw):
    """Dusts with 0.0 and -0.0, 1.0, subnormals and repeats."""
    pool = draw(st.lists(EDGE_VALUES, min_size=1, max_size=20))
    points = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=200))
    return CantorDust(np.array(points))


HEADER = st.dictionaries(
    st.sampled_from(["kind", "spec", "S", "seed", "mix", "disjoint"]),
    st.one_of(st.integers(), st.floats(), st.booleans(),
              st.text(st.characters(min_codepoint=32, max_codepoint=126))))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
          deadline=None)  # write_dust fsyncs every file
@given(dusts(), st.one_of(st.none(), HEADER))
def test_write_dust_bytes_match_reference(tmp_path, dust, header):
    path = tmp_path / "dust.txt"
    write_dust(dust, path, header=header)
    assert path.read_bytes() == reference_format_dust(dust, header).encode()


@pytest.mark.parametrize("S", [1 << 16, (1 << 16) + 1],
                         ids=["2^16-points", "2^16+1-points"])
@pytest.mark.parametrize("header", [None, {"kind": "fixture"}],
                         ids=["bare", "header"])
def test_write_dust_bytes_match_across_a_chunk_boundary(tmp_path, S, header):
    # write_dust chunks at 2^16 rows, which no drawn dust above reaches
    dust = CantorDust(np.random.default_rng(S).random(S))
    path = tmp_path / "dust.txt"
    write_dust(dust, path, header=header)
    assert path.read_bytes() == reference_format_dust(dust, header).encode()


@pytest.mark.parametrize("run", [200, 1 << 16], ids=["short-run", "long-run"])
def test_write_dust_bytes_match_with_a_run_across_a_chunk_boundary(tmp_path,
                                                                   run):
    # the run of 0.5 starts run // 2 points before the first chunk ends; the
    # long run fills most of both chunks, the short run few lines of either
    rng = np.random.default_rng(run)
    below = (1 << 16) - run // 2
    dust = CantorDust(np.concatenate([
        rng.random(below) * 0.5, np.full(run, 0.5), 0.5 + rng.random(99) / 2]))
    path = tmp_path / "dust.txt"
    write_dust(dust, path)
    assert path.read_bytes() == reference_format_dust(dust).encode()


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
          deadline=None)  # write_dust fsyncs every file
@given(dusts())
@example(CantorDust(np.array([0.0, -0.0, 0.0, -0.0, 0.5, 0.5])))
def test_dust_round_trip_is_bit_exact(tmp_path, dust):
    path = tmp_path / "dust.txt"
    write_dust(dust, path)
    _, rows = read_rows(path)
    bits = dust.points.view(np.int64)
    assert np.array_equal(np.array(rows).view(np.int64), bits)  # in order
    # the rows are in order already, so CantorDust keeps them as they are:
    # -0.0 and 0.0 compare equal, and a sort could swap them
    assert np.array_equal(read_dust(path).points.view(np.int64), bits)


def runs_per_chunk(points):
    """Runs of bit-equal points, counted within each _CHUNK_LINES chunk."""
    bits = points.view(np.int64)
    return sum(len(list(groupby(bits[i:i + measure._CHUNK_LINES].tolist())))
               for i in range(0, bits.size, measure._CHUNK_LINES))


# 5 levels, each repeated, with a run across the first chunk's end; signed
# zeros, whose reprs differ though they compare equal; and distinct points
C = measure._CHUNK_LINES
LEVELS = np.repeat([0.0, 0.125, 0.5, 0.75, 1.0], [10, C, 7, C // 2, 3])
ZEROS = np.array([-0.0, 0.0] * 4 + [0.5] * 12)
DISTINCT = np.linspace(0.0, 1.0, C + 5)


@pytest.mark.parametrize("points", [LEVELS, ZEROS, DISTINCT],
                         ids=["levels", "zeros", "distinct"])
def test_each_run_of_equal_points_is_converted_once(tmp_path, monkeypatch,
                                                    points):
    # counts conversions instead of timing them: write_dust calls repr once
    # per run of equal points in each chunk, and read_rows calls parse once
    # per run of equal lines in the file, plus once for the header line
    converted = []

    def counting_repr(x):
        converted.append(x)
        return repr(x)

    monkeypatch.setattr(measure, "repr", counting_repr, raising=False)
    dust = CantorDust(points)
    path = tmp_path / "dust.txt"
    write_dust(dust, path, header={"kind": "levels"})
    assert len(converted) == runs_per_chunk(dust.points)
    assert path.read_bytes() == reference_format_dust(
        dust, {"kind": "levels"}).encode()

    parsed = []

    def counting_float(line):
        parsed.append(line)
        return float(line)

    _, rows = read_rows(path, parse=counting_float)
    runs = len(list(groupby(dust.points.view(np.int64).tolist())))
    assert len(parsed) == 1 + runs
    assert np.array_equal(np.array(rows).view(np.int64),
                          dust.points.view(np.int64))


@pytest.mark.parametrize("header", [
    {"note": "x\n0.5"}, {"note": "x\r0.5"}, {"a\nb": 1}, {"a=b": 1}],
    ids=["newline-value", "return-value", "newline-key", "equals-key"])
def test_a_header_that_would_break_its_line_is_refused(tmp_path, header):
    # "x\n0.5" would add the point 0.5, and "a=b" would read back as key a
    path = tmp_path / "dust.txt"
    with pytest.raises(FormatError, match="does not read back"):
        write_dust(CantorDust([0.25, 0.75]), path, header=header)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("note", ["bad\n0.7,0.9", "bad\r0.7,0.9"])
def test_a_sizing_note_that_would_add_a_row_is_refused(note):
    spec = Spectrum(np.array([0.5, 1.0]), np.array([0.2, 0.4]),
                    sizing="Warning", sizing_notes=[note])
    with pytest.raises(FormatError, match="does not read back"):
        format_spectrum_csv(spec)


def test_write_dust_hands_on_chunks_of_at_most_chunk_lines_rows(monkeypatch):
    # the peak memory of writing a large dust rests on this: the text is
    # made a chunk at a time, as atomic_write asks for it
    written = []

    def record(path, chunks):
        assert iter(chunks) is chunks  # made as it is read, not up front
        written.extend(chunks)

    monkeypatch.setattr(measure, "atomic_write", record)
    S = 2 * measure._CHUNK_LINES + 1
    dust = CantorDust(np.random.default_rng(S).random(S))
    write_dust(dust, "unused", header={"kind": "fixture", "S": S})
    assert max(chunk.count("\n") for chunk in written) <= measure._CHUNK_LINES
    assert "".join(written) == reference_format_dust(dust, {
        "kind": "fixture", "S": S})


LINE_100 = CantorDust(np.linspace(0.0, 1.0, 100))


@given(dusts(), st.integers(2, 64), st.integers(1, 12))
@example(LINE_100, 15, 3)    # Warning band: one sizing note
@example(LINE_100, 64, 12)   # forced Violation: two sizing notes
def test_format_spectrum_csv_matches_reference(dust, B, A):
    spec = estimate(dust, B, A, force=True)
    assert format_spectrum_csv(spec) == reference_format_spectrum_csv(spec)
