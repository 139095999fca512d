import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def missing_module_names(text):
    """(module, name) for each backticked name in the Modules table that
    the module of its row does not define."""
    table = text.split("\nModules:\n", 1)[1]
    rows = re.findall(r"^\| `(mfkappa\.\w+)` \| (.*) \|$", table, re.M)
    assert rows
    return [(module, name) for module, cells in rows
            for name in re.findall(r"`([^`]+)`", cells)
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
