import random
from itertools import product

import pytest

from kdirac import parabolic, polynomials, tableau
from kdirac.euclidean import build_euclidean, quadratic_component_dims
from kdirac.linalg import ExactMatrix, GaussRational, RowFactor, rank_rows
from kdirac.parabolic import (
    ParabolicSystem,
    build_parabolic,
    level0_prolongation_formula,
    level0_rhs_formula,
    level1_rhs_formula,
    lift_check,
    parabolic_cartan_suite,
    parabolic_level1_ordering,
    parabolic_prolongation_decomposition,
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
    def test_parameter_bounds(self):
        with pytest.raises(ValueError, match="n must be at least 3, got 2"):
            build_parabolic(2, 2)
        with pytest.raises(ValueError, match="k must be at least 2, got 1"):
            build_parabolic(4, 1)

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

    @pytest.mark.parametrize("alpha,i", [(0, 1), (4, 1), (1, 0), (1, 3)])
    def test_field_labels_out_of_range(self, psys32, alpha, i):
        with pytest.raises(ValueError):
            psys32.lfield(alpha, i)

    def test_slots_kill_constants(self, psys32):
        const = SpinorPoly.monomial(psys32.vars, psys32.s, (0,) * 7, 1)
        for op in psys32.ops:
            assert apply_op(op, const).is_zero()

    def test_bracket_identity_degree_three(self, psys32):
        # apart from check_bracket_identity: both field orders on every
        # monomial of weighted degree <= 3 in every spinor slot
        for sys in (psys32, build_parabolic(3, 3)):
            fields = [(a, i) for a in range(1, sys.n + 1) for i in range(1, sys.k + 1)]
            zero = SpinorPoly.zero(sys.vars, sys.s)
            skew = {(i, j): sys.y_derivative(i, j)
                    for i, j in product(range(1, sys.k + 1), repeat=2) if i != j}
            for d in range(4):
                for exps in monomial_basis(sys.vars, d):
                    for mu in range(sys.s):
                        p = SpinorPoly.monomial(sys.vars, sys.s, exps, mu)
                        once = {f: apply_op(sys.lfield(*f), p) for f in fields}
                        for x, (a, i) in enumerate(fields):
                            for b, j in fields[x:]:
                                got = (apply_op(sys.lfield(a, i), once[b, j])
                                       - apply_op(sys.lfield(b, j), once[a, i]))
                                want = apply_op(skew[i, j], p) if a == b and i != j else zero
                                assert got == want, (sys.n, sys.k, a, i, b, j, exps, mu)

    @pytest.mark.parametrize("fault", ["half sign flipped", "y-term dropped",
                                       "matrix not scalar"])
    def test_corrupted_field_fails_the_build(self, monkeypatch, fault):
        if fault == "half sign flipped":
            monkeypatch.setattr(parabolic, "HALF", -parabolic.HALF)
        else:
            original = ParabolicSystem._field_terms

            def field_terms(self, alpha, i, matrix):
                terms = original(self, alpha, i, matrix)
                if (alpha, i) != (1, 1) or matrix.entries != ExactMatrix.identity(self.s).entries:
                    return terms
                if fault == "y-term dropped":
                    return terms[:-1]
                # slot 0 keeps d/dx_11, every odd slot gets its negative
                (coeff, var, _), *rest = terms
                flip = ExactMatrix(self.s, self.s, {(m, m): (-1) ** m for m in range(self.s)})
                return [(coeff, var, flip)] + rest

            monkeypatch.setattr(ParabolicSystem, "_field_terms", field_terms)
        with pytest.raises(InvariantViolation, match=r"p\(3,2\): .*L_11"):
            build_parabolic(3, 2)

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

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (5, 2), (3, 3)])
    def test_matrix_block_is_the_euclidean_tableau_and_skew_block_free(self, n, k):
        e, p = build_euclidean(n, k).tableau().basis, build_parabolic(n, k).tableau().basis
        skew = range(e.ambient_dim, p.ambient_dim)
        assert p.den == e.den
        assert p.pivots == e.pivots + list(skew)
        assert p.rows == e.rows + [{c: (e.den, 0)} for c in skew]

    def test_prolongation_dimension(self, psys32):
        assert prolong(psys32.tableau()).lifted.dim == 28
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
        r0, r1 = parabolic_cartan_suite(psys33)
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

    def test_first_split_n5(self):
        assert parabolic_prolongation_decomposition(build_parabolic(5, 2)) == (140, 32, 4)

    def test_second_split_n4(self, psys42):
        assert parabolic_prolongation_decomposition(psys42, level=2) == (200, 80, 24, 4)

    def test_splits_do_not_prolong(self, monkeypatch, psys32):
        """Both splits read the tableau's equations; the lifted route is off."""
        sys32 = build_euclidean(3, 2)

        def refuse(t):
            raise AssertionError("a split prolonged its tableau")

        monkeypatch.setattr(tableau, "_prolongation_rows", refuse)
        assert parabolic_prolongation_decomposition(psys32) == (18, 8, 2)
        assert parabolic_prolongation_decomposition(psys32, level=2) == (32, 18, 8, 2)
        assert quadratic_component_dims(sys32) == (18, 0)


class TestWeightedSlices:
    def test_degree_zero_and_one(self, psys32):
        assert psys32.monogenic_space(0).dim == psys32.s
        assert psys32.monogenic_space(1).dim == 8

    def test_degree_two_regression(self, psys32):
        assert psys32.monogenic_space(2).dim == 20

    def test_dimension_without_a_basis_matches_the_basis(self):
        psys = build_parabolic(3, 2)  # fresh: no slice memoised yet
        dims = [psys.monogenic_dim(r) for r in range(4)]
        assert dims == [psys.monogenic_space(r).dim for r in range(4)]

    def test_y_free_slice_matches_matrix_space(self, psys32):
        for r in (1, 2):
            assert y_free_dim(psys32, r) == psys32.euclidean().monogenic_dim(r)


class TestLift:
    @pytest.mark.parametrize("r,t", [(2, 1), (1, 1), (0, 2), (1, 3)])
    def test_skew_labels_out_of_range(self, psys32, r, t):
        with pytest.raises(ValueError, match=rf"skew labels \({r}, {t}\) out of range"
                                             r" 1 <= r < t <= 2"):
            y_monomial(psys32, r, t)

    def test_trivial_lift(self, psys32):
        psi = psys32.euclidean_monogenic_embedded(1)[0]
        assert lift_check(psys32, psi, y_monomial(psys32, 1, 2, 0)) == psi

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
            lift_check(psys32, bad, y_monomial(psys32, 1, 2, 0))

    def test_rejects_seed_with_y(self, psys32):
        bad = SpinorPoly.monomial(psys32.vars, psys32.s, (0, 0, 0, 0, 0, 0, 1), 0)
        with pytest.raises(ValueError):
            lift_check(psys32, bad, y_monomial(psys32, 1, 2, 0))

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
        assert psys._completions == {}
        # seed degree 1 by y12^2 and seed degree 3 by y12 share weighted degree 5
        for degree, power in ((1, 2), (3, 1), (1, 2)):
            psi = psys.euclidean_monogenic_embedded(degree)[0]
            lift_check(psys, psi, y_monomial(psys, 1, 2, power))
        assert sorted(psys._completions) == [(1, 2), (3, 1)]
        assert build_parabolic(3, 2)._completions == {}

    def test_second_lift_of_a_degree_pair_enumerates_and_factors_nothing(
        self, count_calls
    ):
        psys = build_parabolic(3, 2)
        g = y_monomial(psys, 1, 2, 2)
        seeds = psys.euclidean_monogenic_embedded(1)
        lift_check(psys, seeds[0], g)
        calls = count_calls([(polynomials, "_grade"),
                             (polynomials, "monomial_basis"),
                             (polynomials, "RowFactor")])
        warm = [lift_check(psys, psi, g) for psi in seeds[1:]]
        assert calls == {"_grade": 0, "monomial_basis": 0, "RowFactor": 0}
        fresh = build_parabolic(3, 2)
        assert [lift_check(fresh, psi, g) for psi in (seeds[1], seeds[-1])] == [
            warm[0], warm[-1]]

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
