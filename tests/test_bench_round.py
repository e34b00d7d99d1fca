"""One round of each benchmark workload runs and passes its own checks.

The benchmark reads the package through attributes such as
``rep.gamma[a].entries`` and ``prolong(t).lifted``; a change that breaks one
of those reads fails here, in the test suite, before a benchmark run does.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads as WL  # noqa: E402


@pytest.mark.parametrize("name", sorted(WL.WORKLOADS))
def test_one_round_passes_its_checks(name):
    build, make_plan = WL.WORKLOADS[name]
    plan = make_plan(build(), 1)
    assert plan.problems == []
    results = [thunk() for _, thunk, _ in plan.ops]
    for (op_name, _, check), result in zip(plan.ops, results):
        assert check(result) == [], op_name
    for members, check in plan.groups:
        assert check([results[i] for i in members]) == [], [plan.ops[i][0] for i in members]
