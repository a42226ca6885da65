"""Only `dyadlab.walsh` knows how cells are stored.

Exact cells are integer numerators over one denominator with a per-cell
readout mask.  That format is private to `walsh`: the other modules use
its operations on whole `SampledFunction`/`CoefficientSequence` objects,
so a change of storage touches one module.  This test parses them and
fails on any reach into the storage fields, on wrapping raw cells with
`._of(...)`, `._like(...)` or `._store(...)`, and on importing from
`walsh` any private name but the operations its docstring lists.
"""

import ast
import re
from pathlib import Path

import pytest

import dyadlab
from dyadlab import walsh

PACKAGE = Path(dyadlab.__file__).resolve().parent
MODULES = ("group", "norms", "hardy", "operators", "experiments", "cli")
FIELDS = {"_num", "_den", "_frac", "_read"}
WRAPPERS = {"_of", "_like", "_store"}
# the int64 bound check and the cell-count limit
LIMITS = {"_kernel_l1_fits_int64", "_check_depth", "_MAX_DEPTH"}
# the documented operations on whole objects, plus the limits
ALLOWED = {"_gathered", "_weighted", "_zeroed", "_floats", "_nonzero", "_sup", "_integral",
           "_block_means", "_magnitudes", "_sup_abs", "_level",
           "_signed_sup_abs", "_signed_square_sum", "_matches", "_fejer_spectrum",
           "_fejer_rows", "_equal_rows", "_translate_power_sums"} | LIMITS


def storage_reaches(source: str) -> list[str]:
    reaches = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in FIELDS:
            reaches.append(f"line {node.lineno}: .{node.attr}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in WRAPPERS):
            reaches.append(f"line {node.lineno}: .{node.func.attr}(...)")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("walsh"):
            reaches += [f"line {node.lineno}: import {alias.name}" for alias in node.names
                        if alias.name.startswith("_") and alias.name not in ALLOWED]
    return reaches


@pytest.mark.parametrize("module", MODULES)
def test_no_storage_reach_outside_walsh(module):
    assert storage_reaches((PACKAGE / f"{module}.py").read_text()) == []


def test_allowlist_is_the_documented_operations():
    documented = set(re.findall(r"`(_\w+)`", walsh.__doc__))
    assert ALLOWED == documented | LIMITS
    assert all(hasattr(walsh, name) or hasattr(walsh.SampledFunction, name)
               or hasattr(walsh.CoefficientSequence, name) for name in ALLOWED)


def test_guard_sees_every_kind_of_reach():
    source = ("from .walsh import _peak, _level, fwht\n"
              "from dyadlab.walsh import _butterfly_array, _common, _cells, _locked\n"
              "f._num + g._den\n"
              "h._frac[0], h._read\n"
              "SampledFunction._of(3, x)\n"
              "f._like(x, 1, True), f._store(3, x)\n")
    assert len(storage_reaches(source)) == 12
