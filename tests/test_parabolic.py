import random

import pytest

from kdirac import polynomials
from kdirac.linalg import GaussRational, RowFactor, rank_rows
from kdirac.parabolic import (
    build_parabolic,
    check_bracket_identity,
    constant_poly,
    level0_prolongation_formula,
    level0_rhs_formula,
    level1_rhs_formula,
    lift_check,
    parabolic_cartan_suite,
    parabolic_level0_ordering,
    parabolic_level1_ordering,
    parabolic_prolongation_decomposition,
    two_jet_fiber_dim,
    y_free_dim,
    y_monomial,
)
from kdirac.polynomials import SpinorPoly, apply_op, monomial_basis, scalar_multiply
from kdirac.tableau import InvariantViolation, cartan_test, prolong, search_ordering

GR = GaussRational


@pytest.fixture(scope="module")
def psys32():
    return build_parabolic(3, 2)


@pytest.fixture(scope="module")
def psys42():
    return build_parabolic(4, 2)


class TestFields:
    def test_bracket_on_y_monomial(self, psys32):
        # [L_{1 1}, L_{1 2}] y_{12} = d_{1 2} y_{12} = 1
        p = SpinorPoly.monomial(
            psys32.vars, psys32.s, (0, 0, 0, 0, 0, 0, 1), 0
        )
        l11, l12 = psys32.lfield(1, 1), psys32.lfield(1, 2)
        got = apply_op(l11, apply_op(l12, p)) - apply_op(l12, apply_op(l11, p))
        const = SpinorPoly.monomial(psys32.vars, psys32.s, (0,) * 7, 0)
        assert got == const

    def test_bracket_vanishes_for_distinct_rows(self, psys32):
        p = SpinorPoly.monomial(psys32.vars, psys32.s, (0, 0, 0, 0, 0, 0, 1), 0)
        l11, l21 = psys32.lfield(1, 1), psys32.lfield(2, 1)
        got = apply_op(l11, apply_op(l21, p)) - apply_op(l21, apply_op(l11, p))
        assert got.is_zero()

    def test_slots_kill_constants(self, psys32):
        const = SpinorPoly.monomial(psys32.vars, psys32.s, (0,) * 7, 1)
        for op in psys32.ops:
            assert apply_op(op, const).is_zero()

    def test_bracket_identity_degree_three(self, psys32):
        check_bracket_identity(psys32, max_weighted_degree=3)

    def test_slots_lower_weighted_degree(self, psys32):
        rng = random.Random(12)
        for wdeg in (2, 3, 4):
            monos = monomial_basis(psys32.vars, wdeg)
            p = SpinorPoly(
                psys32.vars,
                psys32.s,
                {
                    (rng.choice(monos), rng.randrange(psys32.s)): GR(rng.randint(1, 5))
                    for _ in range(6)
                },
            )
            for op in psys32.ops:
                image = apply_op(op, p)
                assert image.weighted_degrees() <= {wdeg - 1}


class TestTableau:
    def test_dimensions(self, psys32, psys42):
        assert psys32.tableau().dim == 10
        assert psys42.tableau().dim == 28

    def test_prolongation_dimension(self, psys32):
        assert prolong(psys32.tableau()).dim == 28
        assert level0_prolongation_formula(3, 2, 2) == 28

    def test_level0_report(self, psys32):
        r0, _ = parabolic_cartan_suite(psys32)
        assert r0.rhs_cartan_test == level0_rhs_formula(3, 2, 2) == 30
        assert r0.dim_prolongation == 28
        assert not r0.involutive
        assert r0.characters == (2,) * 5 + (0, 0)

    def test_level1_report(self, psys32):
        _, r1 = parabolic_cartan_suite(psys32)
        assert r1.characters == (10, 8, 6, 4, 0, 0, 0)
        assert r1.rhs_cartan_test == level1_rhs_formula(3, 2) == 60
        assert r1.dim_prolongation == 60
        assert r1.involutive

    def test_level1_ordering_requires_k2(self):
        psys33 = build_parabolic(3, 3)
        with pytest.raises(ValueError):
            parabolic_level1_ordering(psys33)

    def test_level0_k3(self):
        psys33 = build_parabolic(3, 3)
        r0, r1 = parabolic_cartan_suite(
            psys33, level0_ob=parabolic_level0_ordering(psys33)
        )
        assert r0.dim_tableau == 18
        assert r0.rhs_cartan_test == level0_rhs_formula(3, 3, 2) == 90
        assert r0.dim_prolongation == 84
        assert not r0.involutive
        # level 1 under the greedy flag, k = 3 having no hand-picked one
        assert r1.ordering_label == "greedy"
        assert r1.characters == (18, 16, 14, 12, 10, 8, 6, 0, 0, 0, 0, 0)
        assert r1.rhs_cartan_test == r1.dim_prolongation == 280
        assert r1.involutive

    def test_level1_k3_n4_greedy(self):
        lifted = prolong(build_parabolic(4, 3).tableau()).lifted
        report = cartan_test(lifted, search_ordering(lifted, "greedy"))
        assert report.characters == tuple(range(48, 8, -4)) + (0,) * 5
        assert report.rhs_cartan_test == report.dim_prolongation == 1320
        assert report.involutive


class TestDecompositions:
    def test_first_prolongation_split(self, psys32):
        assert parabolic_prolongation_decomposition(psys32) == (18, 8, 2)

    def test_second_prolongation_split(self, psys32):
        assert parabolic_prolongation_decomposition(psys32, level=2) == (32, 18, 8, 2)

    def test_first_split_n4(self, psys42):
        assert parabolic_prolongation_decomposition(psys42) == (80, 24, 4)


class TestWeightedSlices:
    def test_degree_zero_and_one(self, psys32):
        assert psys32.weighted_monogenic_space(0).dim == psys32.s
        assert psys32.weighted_monogenic_space(1).dim == 8

    def test_degree_two_regression(self, psys32):
        assert psys32.weighted_monogenic_space(2).dim == 20

    def test_y_free_slice_matches_matrix_space(self, psys32):
        for r in (1, 2):
            assert y_free_dim(psys32, r) == psys32.euclidean().monogenic_dim(r)


class TestLift:
    def test_trivial_lift(self, psys32):
        psi = psys32.euclidean_monogenic_embedded(1)[0]
        assert lift_check(psys32, psi, constant_poly(psys32)) == psi

    def test_constant_seed(self, psys32):
        psi = SpinorPoly.monomial(psys32.vars, psys32.s, (0,) * 7, 0)
        lifted = lift_check(psys32, psi, y_monomial(psys32, 1, 2))
        assert lifted.weighted_degrees() == {2}
        # leading part in y-degree 1 is exactly y12 psi
        nk = 6
        lead = {
            key: v for key, v in lifted.coeffs.items() if sum(key[0][nk:]) >= 1
        }
        assert lead == {((0, 0, 0, 0, 0, 0, 1), 0): GR(1)}

    def test_linear_seeds(self, psys32):
        for psi in psys32.euclidean_monogenic_embedded(1):
            lifted = lift_check(psys32, psi, y_monomial(psys32, 1, 2))
            assert lifted.weighted_degrees() == {3}
            for op in psys32.ops:
                assert apply_op(op, lifted).is_zero()

    def test_linear_seeds_by_y_squared(self, psys32):
        g = y_monomial(psys32, 1, 2, 2)
        for psi in psys32.euclidean_monogenic_embedded(1):
            lifted = lift_check(psys32, psi, g)
            assert lifted.weighted_degrees() == {5}
            top = {key: v for key, v in lifted.coeffs.items() if sum(key[0][6:]) == 2}
            assert SpinorPoly(psys32.vars, psys32.s, top) == scalar_multiply(g, psi)

    def test_rejects_non_monogenic_seed(self, psys32):
        bad = SpinorPoly.monomial(psys32.vars, psys32.s, (1, 0, 0, 0, 0, 0, 0), 0)
        with pytest.raises(ValueError):
            lift_check(psys32, bad, constant_poly(psys32))

    def test_rejects_seed_with_y(self, psys32):
        bad = SpinorPoly.monomial(psys32.vars, psys32.s, (0, 0, 0, 0, 0, 0, 1), 0)
        with pytest.raises(ValueError):
            lift_check(psys32, bad, constant_poly(psys32))

    def test_rejects_mixed_g(self, psys32):
        psi = SpinorPoly.monomial(psys32.vars, psys32.s, (0,) * 7, 0)
        bad_g = {(1, 0, 0, 0, 0, 0, 0): GR(1)}
        with pytest.raises(ValueError):
            lift_check(psys32, psi, bad_g)


class TestLiftBasis:
    def test_degree2_seeds_by_y_squared(self):
        psys = build_parabolic(3, 2)
        g = y_monomial(psys, 1, 2, 2)
        seeds = psys.euclidean_monogenic_embedded(2)
        assert len(seeds) == 18
        lifts = [lift_check(psys, psi, g) for psi in seeds]
        for psi, lifted in zip(seeds, lifts):
            for op in psys.ops:
                assert apply_op(op, lifted).is_zero()
            top = {key: v for key, v in lifted.coeffs.items() if sum(key[0][6:]) == 2}
            assert SpinorPoly(psys.vars, psys.s, top) == scalar_multiply(g, psi)
        cols = {}
        rows = [{cols.setdefault(key, len(cols)): v for key, v in p.coeffs.items()}
                for p in lifts]
        assert rank_rows(rows) == 18

    def test_memo_keeps_one_factor_per_seed_degree_and_y_degree(self):
        psys = build_parabolic(3, 2)
        assert psys._factors == {}
        # seed degree 1 by y12^2 and seed degree 3 by y12 share weighted degree 5
        for degree, power in ((1, 2), (3, 1), (1, 2)):
            psi = psys.euclidean_monogenic_embedded(degree)[0]
            lift_check(psys, psi, y_monomial(psys, 1, 2, power))
        assert sorted(k[0] for k in psys._factors) == [5, 5]
        assert build_parabolic(3, 2)._factors == {}

    def test_failed_lift_names_the_system_and_degrees(self, monkeypatch):
        class Inconsistent(RowFactor):
            __slots__ = ()

            def solve(self, x):
                return None

        monkeypatch.setattr(polynomials, "RowFactor", Inconsistent)
        psys = build_parabolic(3, 2)
        psi = psys.euclidean_monogenic_embedded(1)[0]
        with pytest.raises(InvariantViolation) as err:
            lift_check(psys, psi, y_monomial(psys, 1, 2))
        # the unknowns are the 56 cubic x-monomials times s = 2
        assert "p(3,2) seed degree 1, y-degree 1" in str(err.value)
        assert "len(unknown) * s = 112" in str(err.value)


class TestTwoJetFibre:
    def test_regression_values(self, psys32, psys42):
        assert two_jet_fiber_dim(psys32) == 20
        assert two_jet_fiber_dim(psys42) == 84
