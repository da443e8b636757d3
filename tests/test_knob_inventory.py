"""The README's environment-variable table lists exactly the
``REPRO_*`` variables the code reads.

A name counts as read when it appears under ``src/`` as a whole string
literal (``os.environ.get("REPRO_X")``, ``_env_bytes("REPRO_X", ...)``);
names inside docstrings, comments and f-strings do not count.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def _names_read_in_src() -> set[str]:
    names: set[str] = set()
    for path in (ROOT / "src").rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _NAME.fullmatch(node.value)
            ):
                names.add(node.value)
    return names


def _names_in_readme_table() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Environment variables", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", section, re.MULTILINE)


def test_readme_table_equals_names_read_under_src():
    table = _names_in_readme_table()
    assert len(table) == len(set(table)), "duplicate README rows"
    assert set(table) == _names_read_in_src()
