"""The README's library-layout table names only what its modules define."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _layout_rows():
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`citemetrics."):
            yield cells[1].strip().strip("`"), re.findall(r"`([^`]+)`", cells[2])


def test_layout_table_names_exist():
    rows = list(_layout_rows())
    assert len(rows) == 7
    missing = [f"{module}.{name}" for module, names in rows for name in names
               if not hasattr(importlib.import_module(module), name)]
    assert missing == []
