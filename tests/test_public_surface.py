"""Every public name and setting has a caller.

Each name in `ditto.__all__` resolves, and is referenced somewhere in the
package outside `__init__.py` and the name's own `def` or `class` line, in
`demos/` or in `bench/`.  Each defaulted parameter of a public function or
method in the package is passed, by position or by keyword, by some call in
the package, `demos/` or `bench/`."""

import ast
import re
from pathlib import Path

import ditto

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ditto"


def _caller_files():
    return (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
            + sorted((ROOT / "bench").glob("*.py")))


def _lines():
    files = [p for p in _caller_files() if p != PACKAGE / "__init__.py"]
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


def _defaulted(fn: ast.FunctionDef, callee: str, bound: int):
    """(callee, parameter, index among the call's positional arguments or
    None) of each defaulted parameter of `fn` whose name has no leading `_`;
    `bound` is 1 for a method's self or cls, else 0."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(callee, a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
    out += [(callee, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return [entry for entry in out if not entry[1].startswith("_")]


def _public_defaulted_parameters():
    """(file name, callee name, parameter, positional index or None) of every
    defaulted parameter of the package's public functions and methods; a
    constructor is called by its class name."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            found = _defaulted(node, node.name, 0) if isinstance(node, ast.FunctionDef) else []
            for fn in node.body if isinstance(node, ast.ClassDef) else []:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                if fn.name == "__init__":
                    found += _defaulted(fn, node.name, 1)
                elif not fn.name.startswith("_"):
                    found += _defaulted(fn, fn.name, 0 if static else 1)
            yield from ((path.name, *entry) for entry in found)


def _calls():
    """Every call in the package, `demos/` and `bench/`, by callee name."""
    calls = {}
    for path in _caller_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, param: str, index: int | None) -> bool:
    if any(k.arg in (param, None) for k in call.keywords):  # None: a **mapping
        return True
    return index is not None and (len(call.args) > index or
                                  any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_passed_by_a_caller():
    calls = _calls()
    params = list(_public_defaulted_parameters())
    assert params
    uncalled = [f"{path}:{callee}({param})" for path, callee, param, index in params
                if not any(_passes(c, param, index) for c in calls.get(callee, []))]
    assert uncalled == []
