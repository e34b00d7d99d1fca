"""The benchmark's own checks: a wrong dimension or a non-monogenic result
marks its operation as failed.

Run with ``python3 -m pytest bench/test_checks.py`` from the repository root.
"""

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks as C  # noqa: E402
from hostclock import HostClock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as WL  # noqa: E402
import pytest  # noqa: E402
from kdirac import euclidean as E  # noqa: E402
from kdirac import linalg as L  # noqa: E402
from kdirac import parabolic as P  # noqa: E402
from kdirac import tableau as T  # noqa: E402
from kdirac.polynomials import SpinorPoly  # noqa: E402

E32 = E.build_euclidean(3, 2)
P32 = P.build_parabolic(3, 2)


def level0_report():
    return T.cartan_test(E32.tableau(), E.level0_ordering(E32))


def test_report_checks_pass_and_catch_a_wrong_dimension():
    report = level0_report()
    assert C.check_report(report, **C.e_level0(3, 2), involutive=False) == []
    wrong = dataclasses.replace(report, dim_prolongation=report.dim_prolongation + 1)
    assert C.check_report(wrong, **C.e_level0(3, 2), involutive=False)
    expected = dict(C.e_level0(3, 2), dim=C.e_level0(3, 2)["dim"] + 1)
    assert C.check_report(report, **expected, involutive=False)


def test_report_check_catches_a_certified_level0_verdict():
    report = level0_report()
    forged = dataclasses.replace(report, dim_prolongation=report.rhs_cartan_test,
                                 involutive=True)
    assert C.check_report(forged, dim=report.dim_tableau,
                          dim_prolongation=report.rhs_cartan_test, involutive=False)


def extension_and_data():
    g1, g2 = WL.chart_data_basis(E32, 2)[0]
    return E.extend_from_initial_data(E32, g1, g2), g1, g2


def test_extension_check_catches_a_non_monogenic_result():
    ops = C.chart_dirac_terms(3, C.gamma_entries(E32.rep))
    psi, g1, g2 = extension_and_data()
    assert C.check_extension(ops, 3, 2, psi, g1, g2) == []
    # t_1 t_6 lies off the data variables and no slot operator kills it
    bad = psi + SpinorPoly.monomial(psi.vars, psi.spinor_dim, (1, 0, 0, 0, 0, 1), 0)
    problems = C.check_extension(ops, 3, 2, bad, g1, g2)
    assert any("does not annihilate" in p for p in problems)


def test_lift_check_catches_a_non_monogenic_result():
    ops = C.parabolic_dirac_terms(3, 2, C.gamma_entries(P32.rep))
    psi = P32.euclidean_monogenic_embedded(1)[0]
    g = P.y_monomial(P32, 1, 2)
    lifted = P.lift_check(P32, psi, g)
    assert C.check_lift(ops, 6, lifted, psi, g) == []
    bad = lifted + SpinorPoly.monomial(lifted.vars, lifted.spinor_dim,
                                       (1, 0, 0, 0, 0, 0, 1), 1)
    problems = C.check_lift(ops, 6, bad, psi, g)
    assert any("does not annihilate" in p for p in problems)
    assert any("top y-degree" in p for p in problems)


def test_independence_check_catches_a_repeated_result():
    psi = extension_and_data()[0]
    assert C.check_independent([psi], 1) == []
    assert C.check_independent([psi, psi.scaled(2)], 2)
    assert C.check_independent([psi], 2)


def test_verifier_counts_wrong_and_raising_operations_as_failed():
    plan = WL.Plan()
    good = plan.op("good", level0_report, lambda r: C.check_report(
        r, **C.e_level0(3, 2), involutive=False))
    plan.op("wrong dimension", lambda: 19, lambda d: C.check_equal("slice", d, 18))

    def boom():
        raise ValueError("no result")

    plan.op("raises", boom, lambda _: [])
    plan.groups.append(([good], lambda results: []))
    verifier = run.Verifier(plan)
    with HostClock() as clock:
        for _ in range(2):  # the second round reuses the first round's verdicts
            _, _, results = run.run_round(plan, clock)
            assert verifier.failed(results) == 2


def test_tracer_records_a_call_that_raises_and_restores_the_originals():
    original = L.kernel_rows
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert T.kernel_rows is not original
        with pytest.raises(ValueError):
            T.kernel_rows([{5: L.ONE}], 2)  # support beyond the stated columns
    finally:
        tracer.uninstall()
    assert T.kernel_rows is original and L.kernel_rows is original
    assert tracer.calls["linalg.kernel_rows"] == 1
    assert None not in tracer.spans


def test_benchmark_file_lists_the_traced_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
