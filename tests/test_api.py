"""The public API has no name that only the tests use."""

import re
from pathlib import Path

import onebit_precoding

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(onebit_precoding.__file__).resolve().parent


def test_every_export_is_used_outside_the_tests():
    """Each name in ``__all__`` is referenced in the package beyond its own
    definition and its re-export in ``__init__.py``, or in README.md, or in
    the benchmark's non-test code under perfbench/."""
    src = "\n".join(p.read_text() for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    bench = [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    elsewhere = "\n".join(p.read_text() for p in [ROOT / "README.md", *bench])
    unused = []
    for name in onebit_precoding.__all__:
        uses = len(re.findall(rf"\b{name}\b", src))
        definitions = len(re.findall(rf"^(?:def|class) {name}\b|^{name} =", src, re.M))
        if uses <= definitions and not re.search(rf"\b{name}\b", elsewhere):
            unused.append(name)
    assert unused == []
