"""The ``>>>`` examples in the package's docstrings run and hold."""

import doctest
import importlib
import pkgutil

import pytest

import gradedrings

MODULES = ["gradedrings"] + [
    f"gradedrings.{info.name}"
    for info in pkgutil.iter_modules(gradedrings.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name), verbose=False, report=False)
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"


def test_doctests_are_found():
    groups = importlib.import_module("gradedrings.groups")
    assert doctest.testmod(groups, verbose=False, report=False).attempted >= 8
