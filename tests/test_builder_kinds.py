"""The builder-kind table and the documents that describe it."""

import contextlib
import io
import re
from pathlib import Path

from qta import BUILDER_KINDS, catalog_names, get_entry
from qta.quasitwilled import _KINDS

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_section(title):
    text = README.read_text(encoding="utf-8")
    start = text.index(title)
    return text[start:]


def test_operator_names_cover_eight_pairs():
    named = {(kind, side) for kind, row in _KINDS.items()
             for side in ("right", "left") if getattr(row, side) is not None}
    assert len(named) == 8


def test_every_kind_has_a_catalog_example():
    kinds = {get_entry(name).document["builder"]["kind"]
             for name in catalog_names()}
    assert kinds == set(BUILDER_KINDS)


def test_readme_table_lists_each_rows_tables():
    section = _readme_section("Builder kinds and their tables")
    rows = re.findall(r"^\| `(\w+)`\s*\|(.*)\|\s*$", section, re.MULTILINE)
    assert [kind for kind, _ in rows] == list(BUILDER_KINDS)
    for kind, cell in rows:
        tables, _, scalars = cell.partition("(+")
        row = _KINDS[kind]
        assert re.findall(r"`(\w+)`", tables) == list(row.tables), kind
        assert re.findall(r"`(\w+)`", scalars) == list(row.scalars), kind


def test_readme_library_example_runs():
    section = _readme_section("## Library example")
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README library example", "exec"), {})
    assert out.getvalue().splitlines()[0] == "derivation"
