"""A broken invariant raises InvariantViolation naming the system, the level
or ordering, and the two numbers that disagreed. Each failure is forced by
monkeypatching one step."""

import pytest

from kdirac import euclidean, parabolic, tableau
from kdirac.euclidean import build_euclidean, level0_ordering, level1_ordering
from kdirac.parabolic import build_parabolic
from kdirac.tableau import InvariantViolation, Tableau, cartan_test, prolong


def one_equation_short(monkeypatch):
    equations = Tableau.equations.func
    monkeypatch.setattr(Tableau, "equations", property(lambda t: equations(t)[1:]))


def level0_report():
    sys = build_euclidean(3, 2)
    return cartan_test(sys.tableau(), level0_ordering(sys))


def level1_report():
    sys = build_euclidean(3, 2)
    return cartan_test(prolong(sys.tableau()).lifted, level1_ordering(sys))


def tableau_one_too_large(monkeypatch):
    monkeypatch.setattr(Tableau, "dim", property(lambda t: t.basis.dim + 1))


def state_gains_lost(monkeypatch):
    """The greedy search's reductions against its state in V* (x) W, whose
    held pivots reach past dim V = 6 on e(3,2), add no pivot; the covector
    reductions modulo the chosen span, held in V*, stay exact. The room left
    stays 4, so the room cap never reads the state as full."""
    echelon = tableau._echelon
    monkeypatch.setattr(tableau, "_echelon", lambda rows, held: (
        ({}, []) if max(held, default=0) >= 6 else echelon(rows, held=held)))


def ranks_off(module):
    def patch(monkeypatch):
        monkeypatch.setattr(module, "_projected_ranks",
                            lambda rows, projections: tuple(range(len(projections))))
    return patch


CASES = {
    "corank": (one_equation_short, level0_report,
               ["e(3,2) level 0, ordering 'paper'", "corank of the equations 9 != 8 = dim A"]),
    "Cartan bound": (
        lambda mp: mp.setattr(tableau, "prolongation_dim", lambda t, dim=tableau.prolongation_dim:
                              1000 if t.level >= 1 else dim(t)),
        level1_report,
        ["e(3,2) level 1, ordering 'paper'", "dim A^(1) = 1000 > 32 = rhs"]),
    "e tableau": (tableau_one_too_large, lambda: build_euclidean(3, 2),
                  ["e(3,2) level 0", "symbol tableau dimension 9 != 8"]),
    "p tableau": (tableau_one_too_large, lambda: build_parabolic(3, 2),
                  ["p(3,2) level 0", "symbol tableau dimension 11 != 10"]),
    "component split": (ranks_off(euclidean),
                        lambda: euclidean.quadratic_component_dims(build_euclidean(3, 2)),
                        ["e(3,2) level 1", "0 + 1 != 18 = dim A^(1)"]),
    "graded split": (
        ranks_off(parabolic),
        lambda: parabolic.parabolic_prolongation_decomposition(build_parabolic(3, 2)),
        ["p(3,2) level 1", "0 + 1 + 2 != 28 = dim A^(1)"]),
    "greedy certificate": (
        state_gains_lost,
        lambda: tableau.search_ordering(build_euclidean(3, 2).tableau(), "greedy"),
        ["e(3,2) level 0, ordering 'greedy'", "dim A + gains = 8 != 12 = dim V * dim W"]),
    "bracket": (
        lambda mp: mp.setattr(parabolic, "HALF", -parabolic.HALF),
        lambda: build_parabolic(3, 2),
        ["p(3,2)", "[L_11, L_12] = g_11 d_12", "on the probe y_1_2",
         "got (-1) 1 e0, expected (1) 1 e0"]),
    "greedy state": (
        lambda mp: mp.setattr(tableau, "tensors", lambda t, q, rows=tableau.tensors:
                              rows(t, q)[1:] if q else rows(t, q)),
        lambda: tableau.search_ordering(prolong(build_euclidean(3, 2).tableau()).lifted, "greedy"),
        ["e(3,2) level 1, ordering 'greedy'", "state rank 17 != 18 = dim A"]),
    "second graded split": (
        ranks_off(parabolic),
        lambda: parabolic.parabolic_prolongation_decomposition(build_parabolic(3, 2), level=2),
        ["p(3,2) level 2", "0 + 1 + 2 + 3 != 60 = dim A^(2)"]),
}


@pytest.mark.parametrize("case", CASES)
def test_message_names_system_level_and_numbers(monkeypatch, case):
    patch, run, expected = CASES[case]
    patch(monkeypatch)
    with pytest.raises(InvariantViolation) as err:
        run()
    for part in expected:
        assert part in str(err.value)
