"""Old == new for the text codec.

read_rows hands each raw line to parse and classifies only the lines parse
rejects; write_dust and format_spectrum_csv write through format_rows. The
references below are the codec as it was before: strip and classify every
line, then parse, and each writer spelling out the '# key=value' syntax by
hand. Every line must read the same and every file must come out
byte-identical.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mfkappa.errors import FormatError
from mfkappa.measure import CantorDust, read_rows, write_dust
from mfkappa.spectrum import _alpha_f_row, estimate, format_spectrum_csv


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
    p = spec.params
    lines = [
        f"# S={p.S}",
        f"# B={p.B}",
        f"# A={p.A}",
        f"# epsilon_alpha={p.epsilon_alpha!r}",
        f"# sizing={p.sizing.status.value}",
    ]
    for msg in p.sizing.messages:
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
    in any case, and in half the tables one line from anywhere."""
    parse, header, lines = draw(st.sampled_from([
        (float, None, DUST_LINES), (_alpha_f_row, "alpha,f", CSV_LINES)]))
    table = draw(st.lists(lines, max_size=12))
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


EDGE_VALUES = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 2.2250738585072014e-308,
                     np.nextafter(1.0, 0.0), 0.1, 1 / 3]),
    st.floats(0.0, 1.0))


@st.composite
def dusts(draw):
    """Dusts with 0.0, 1.0, subnormals and repeats."""
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
    # format_rows chunks at 2^16 lines, which no drawn dust above reaches
    dust = CantorDust(np.random.default_rng(S).random(S))
    path = tmp_path / "dust.txt"
    write_dust(dust, path, header=header)
    assert path.read_bytes() == reference_format_dust(dust, header).encode()


LINE_100 = CantorDust(np.linspace(0.0, 1.0, 100))


@given(dusts(), st.integers(2, 64), st.integers(1, 12))
@example(LINE_100, 15, 3)    # Warning band: one sizing note
@example(LINE_100, 64, 12)   # forced Violation: two sizing notes
def test_format_spectrum_csv_matches_reference(dust, B, A):
    spec = estimate(dust, B, A, force=True)
    assert format_spectrum_csv(spec) == reference_format_spectrum_csv(spec)
