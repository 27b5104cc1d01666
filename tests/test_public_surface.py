"""Every public name has a caller: each name in `ditto.__all__` resolves, and
is referenced somewhere in the package outside `__init__.py` and the name's
own `def` or `class` line, in `demos/` or in `bench/`."""

import re
from pathlib import Path

import ditto

ROOT = Path(__file__).resolve().parents[1]


def _lines():
    package = ROOT / "src" / "ditto"
    files = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    return [line for path in files for line in path.read_text().splitlines()]


def test_every_public_name_resolves_and_is_referenced():
    lines = _lines()
    unresolved = [name for name in ditto.__all__ if not hasattr(ditto, name)]
    unreferenced = []
    for name in ditto.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"\s*(def|class)\s+{re.escape(name)}\b")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unreferenced.append(name)
    assert (unresolved, unreferenced) == ([], [])
