import builtins
import importlib
import re
import shlex
from dataclasses import fields
from pathlib import Path

from mfkappa import Spectrum, cli, errors

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def missing_module_names(text):
    """(module, name) for each backticked name in the Modules table that
    the module of its row does not define, and for each backticked
    `measure.name` of the File formats section that mfkappa.measure does
    not define."""
    table = text.split("\nModules:\n", 1)[1]
    rows = re.findall(r"^\| `(mfkappa\.\w+)` \| (.*) \|$", table, re.M)
    formats = text.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    io_names = re.findall(r"`measure\.(\w+)`", formats)
    assert rows and io_names
    named = [(module, name) for module, cells in rows
             for name in re.findall(r"`([^`]+)`", cells)]
    named += [("mfkappa.measure", name) for name in io_names]
    return [(module, name) for module, name in named
            if not hasattr(importlib.import_module(module), name)]


def test_modules_table_names_exist():
    assert missing_module_names(README.read_text()) == []


def test_modules_table_check_catches_a_removed_name():
    text = README.read_text()
    stale = text.replace("| `features`, ",
                         "| `CapShapeResult`, `features`, ", 1)
    assert stale != text
    assert missing_module_names(stale) == [("mfkappa.geometry",
                                            "CapShapeResult")]


def test_file_formats_check_catches_a_removed_name():
    text = README.read_text()
    stale = text.replace("`measure.format_header`", "`measure.format_rows`")
    assert stale != text
    assert missing_module_names(stale) == [("mfkappa.measure", "format_rows")]


def unnamed_spectrum_fields(text):
    """The fields of Spectrum that the Library section's "A `Spectrum`
    holds" paragraph does not name in backticks."""
    paragraph = text.split("\nA `Spectrum` holds", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"`([^`]+)`", paragraph))
    return [f.name for f in fields(Spectrum) if f.name not in named]


def test_spectrum_paragraph_names_every_field():
    assert unnamed_spectrum_fields(README.read_text()) == []


def test_spectrum_paragraph_check_catches_a_missing_field():
    text = README.read_text()
    stale = text.replace("`sizing_notes`", "its notes")
    assert stale != text
    assert unnamed_spectrum_fields(stale) == ["sizing_notes"]


def exit_code_mismatches(text):
    """(unknown, unnamed): the backticked class names of the exit-code
    paragraph that are neither a builtin exception nor in mfkappa.errors,
    and the MfkError classes that the paragraph does not name."""
    paragraph = text.split("\nExit codes:", 1)[1].split("\n\n", 1)[0]
    named = {span for span in re.findall(r"`([^`]+)`", paragraph)
             if re.fullmatch(r"[A-Z]\w*[a-z]\w*", span)}  # not `S` or `B`
    known = {**vars(builtins), **vars(errors)}
    unknown = sorted(name for name in named
                     if not (isinstance(known.get(name), type)
                             and issubclass(known[name], BaseException)))
    classes, todo = set(), [errors.MfkError]
    while todo:
        cls = todo.pop()
        classes.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return unknown, sorted(classes - named)


def test_exit_code_paragraph_names_every_error_class():
    assert exit_code_mismatches(README.read_text()) == ([], [])


def test_exit_code_check_catches_a_stale_name():
    text = README.read_text()
    stale = text.replace("its subclass `FormatError`",
                         "its subclass `EmptySignal`", 1)
    assert stale != text
    assert exit_code_mismatches(stale) == (["EmptySignal"], ["FormatError"])


def refused_cli_lines(text):
    """The `mfk` lines of the CLI section's first block that the parser of
    the mfk command refuses."""
    block = text.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("mfk ")]
    assert lines
    refused = []
    for line in lines:
        try:
            cli.build_parser().parse_args(shlex.split(line)[1:])
        except errors.SpecError:  # how the parser reports a bad flag
            refused.append(line)
    return refused


def test_cli_block_parses():
    assert refused_cli_lines(README.read_text()) == []


def test_cli_block_check_catches_a_stale_flag():
    text = README.read_text()
    line = next(line for line in text.splitlines()
                if line.startswith("mfk generate selfsimilar "))
    stale = text.replace(line, line + " --spec a.json", 1)
    assert stale != text
    assert refused_cli_lines(stale) == [line + " --spec a.json"]
