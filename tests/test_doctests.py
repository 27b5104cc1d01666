"""The `>>>` examples in the package's docstrings run and hold."""

import doctest
import importlib
import pkgutil

import ditto


def test_docstring_examples_pass():
    names = ["ditto"] + [m.name for m in pkgutil.iter_modules(ditto.__path__, "ditto.")]
    results = [doctest.testmod(importlib.import_module(name)) for name in names]
    assert sum(r.failed for r in results) == 0
    assert sum(r.attempted for r in results) > 0
