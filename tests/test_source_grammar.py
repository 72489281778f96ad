"""Every source and test file parses with the Python 3.10 grammar.

pyproject.toml declares requires-python >= 3.10 and CI runs 3.10, so a
newer construct (``except*``, PEP 695 type parameters, ...) must fail
here, on whichever interpreter runs the tests.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "bosonbell").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def test_sources_are_found():
    names = {path.name for path in SOURCES}
    assert {"cli.py", "stirling_bell.py", "test_source_grammar.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_parses_with_the_3_10_grammar(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_guard_rejects_a_3_11_construct():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
