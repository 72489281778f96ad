"""README's library example runs as printed, so a renamed or deleted
public name in it fails here."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_one_library_example():
    blocks = python_blocks()
    assert len(blocks) == 1 and "import bosonbell as bb" in blocks[0]


def test_the_library_example_runs():
    namespace = {}
    exec(compile(python_blocks()[0], str(README), "exec"), namespace)
    # its Fock line gives <1/2|[(a+)^2 a]^n|1/2> for n = 1, 2, 3 from one pass
    assert len(namespace["fock"][namespace["p"], 3, namespace["z"]]) == 3
