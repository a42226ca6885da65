"""Only `dyadlab.walsh` knows how cells are stored.

Exact cells are integer numerators over one denominator with a per-cell
readout mask.  That format is private to `walsh`: the other modules use
its operations on whole `SampledFunction`/`CoefficientSequence` objects,
so a change of storage touches one module.  This test parses them and
fails on any reach into the storage fields, on wrapping raw cells with
`._of(...)`, and on importing a numerator helper from `walsh`.
"""

import ast
from pathlib import Path

import pytest

import dyadlab

PACKAGE = Path(dyadlab.__file__).resolve().parent
MODULES = ("group", "norms", "hardy", "operators", "experiments", "cli")
FIELDS = {"_num", "_den", "_frac", "_read"}
HELPERS = {"_peak", "_fit", "_int_dtype", "_widened", "_total", "_times", "_product",
           "_quotient", "_reduced", "_butterflied", "_float_cells", "_tag"}


def storage_reaches(source: str) -> list[str]:
    reaches = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in FIELDS:
            reaches.append(f"line {node.lineno}: .{node.attr}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "_of"):
            reaches.append(f"line {node.lineno}: ._of(...)")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("walsh"):
            reaches += [f"line {node.lineno}: import {alias.name}"
                        for alias in node.names if alias.name in HELPERS]
    return reaches


@pytest.mark.parametrize("module", MODULES)
def test_no_storage_reach_outside_walsh(module):
    assert storage_reaches((PACKAGE / f"{module}.py").read_text()) == []


def test_guard_sees_every_kind_of_reach():
    source = ("from .walsh import _peak, fwht\n"
              "from dyadlab.walsh import _float_cells\n"
              "f._num + g._den\n"
              "h._frac[0], h._read\n"
              "SampledFunction._of(3, x)\n")
    assert len(storage_reaches(source)) == 7
