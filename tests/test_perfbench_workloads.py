"""The benchmark's workloads call crosscap's library; those calls must work.

One seeded round of each workload is built in a scratch directory, and
the first operation of each kind that no tracked fault hits is run and
checked by the benchmark's own oracle.
"""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        # workloads.py imports its sibling oracle.py by plain name
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up while the class is made
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["germ_reports", "family_sweep", "off_origin"])
def test_first_operation_of_each_kind_passes_its_check(workloads, name, tmp_path):
    ops = workloads.WORKLOADS[name].build_round(np.random.default_rng([1, 0]), str(tmp_path), "r0")
    first = {}
    for op in ops:
        if op.fault is None:
            first.setdefault(op.kind, op)
    assert first
    for kind, op in first.items():
        assert op.check(op.run()) is None, kind
