"""A broken invariant raises InvariantViolation naming the system, the level
or ordering, and the two numbers that disagreed. Each failure is forced by
monkeypatching one step."""

import pytest

from kdirac import euclidean, parabolic, tableau
from kdirac.euclidean import build_euclidean, level0_ordering, level1_ordering
from kdirac.parabolic import build_parabolic
from kdirac.tableau import InvariantViolation, Tableau, cartan_test, prolong


def pivot_past_the_last_block(monkeypatch):
    original = tableau.int_pivot_cols
    monkeypatch.setattr(tableau, "int_pivot_cols", lambda rows: original(rows) + [10**6])


def level0_report():
    sys = build_euclidean(3, 2)
    return cartan_test(sys.tableau(), level0_ordering(sys))


def level1_report():
    sys = build_euclidean(3, 2)
    return cartan_test(prolong(sys.tableau()).lifted, level1_ordering(sys))


def tableau_one_too_large(monkeypatch):
    monkeypatch.setattr(Tableau, "dim", property(lambda t: t.basis.dim + 1))


def ranks_off(module):
    def patch(monkeypatch):
        monkeypatch.setattr(module, "_projected_ranks",
                            lambda rows, projections: tuple(range(len(projections))))
    return patch


CASES = {
    "A_n": (pivot_past_the_last_block, level0_report,
            ["e(3,2) level 0, ordering 'paper'", "A_n must vanish", "dim A_6 = 1 != 0"]),
    "Cartan bound": (
        lambda mp: mp.setattr(tableau, "prolongation_dim", lambda t: 1000),
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
