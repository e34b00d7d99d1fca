import random
from fractions import Fraction
from math import comb

import pytest

from kdirac.clifford import build_spinor_rep
from kdirac.linalg import ExactMatrix, GaussRational
from kdirac.parabolic import build_parabolic
from kdirac.polynomials import (
    DiffOp,
    SpinorPoly,
    VariableSet,
    _constraint_rows,
    apply_op,
    basis_polynomials,
    monomial_basis,
    solution_space,
    solve_correction,
)

GR = GaussRational


def euclidean_vars(n, k):
    return VariableSet.of([f"x_{a}_{i}" for a in range(1, n + 1) for i in range(1, k + 1)])


def dirac_ops(rep, n, k):
    """Slot operators sum_a gamma_a d/dx_{a i} for i = 1..k."""
    vars = euclidean_vars(n, k)
    one = {(0,) * len(vars): GR(1)}
    ops = []
    for i in range(k):
        terms = [(one, a * k + i, rep.gamma[a]) for a in range(n)]
        ops.append(DiffOp(vars, rep.s, terms))
    return vars, ops


class TestMonomialBasis:
    def test_three_vars_degree_two(self):
        vs = VariableSet.of(["a", "b", "c"])
        monos = monomial_basis(vs, 2)
        assert len(monos) == 6
        assert monos[0] == (2, 0, 0)
        assert monos == sorted(monos, reverse=True)

    def test_weighted_degree_two(self):
        vs = VariableSet.of(["x", "y"], [1, 2])
        assert monomial_basis(vs, 2) == [(2, 0), (0, 1)]

    def test_three_vars_degree_three(self):
        vs = VariableSet.of(["a", "b", "c"])
        assert len(monomial_basis(vs, 3)) == 10

    def test_count_identity(self):
        rng = random.Random(2)
        for _ in range(10):
            nv, d = rng.randint(1, 5), rng.randint(0, 5)
            vs = VariableSet.of([f"v{i}" for i in range(nv)])
            monos = monomial_basis(vs, d)
            assert len(monos) == comb(nv + d - 1, d)
            assert len(set(monos)) == len(monos)

    def test_degree_zero(self):
        vs = VariableSet.of(["x", "y"], [1, 2])
        assert monomial_basis(vs, 0) == [(0, 0)]


class TestApplyOp:
    def test_kills_constants(self):
        rep = build_spinor_rep(3)
        vars, ops = dirac_ops(rep, 3, 2)
        const = SpinorPoly.monomial(vars, rep.s, vars.zero_exponents(), 0)
        for op in ops:
            assert apply_op(op, const).is_zero()

    def test_plain_derivative(self):
        vs = VariableSet.of(["x", "y"])
        ident = ExactMatrix.identity(1)
        op = DiffOp(vs, 1, [({(0, 0): GR(1)}, 0, ident)])
        p = SpinorPoly.monomial(vs, 1, (2, 0), 0)
        assert apply_op(op, p) == SpinorPoly.monomial(vs, 1, (1, 0), 0, 2)

    def test_invertible_symbol_never_kills_linear(self):
        # gamma_1 is invertible, so slot 1 applied to x_{11} v is gamma_1 v != 0
        rep = build_spinor_rep(3)
        vars, ops = dirac_ops(rep, 3, 2)
        for mu in range(rep.s):
            p = SpinorPoly.monomial(vars, rep.s, (1, 0, 0, 0, 0, 0), mu)
            image = apply_op(ops[0], p)
            assert not image.is_zero()

    def test_linearity(self):
        rng = random.Random(9)
        rep = build_spinor_rep(4)
        vars, ops = dirac_ops(rep, 4, 2)
        monos = monomial_basis(vars, 2)

        def rand_poly():
            return SpinorPoly(
                vars,
                rep.s,
                {
                    (rng.choice(monos), rng.randrange(rep.s)): GR(
                        rng.randint(-3, 3), rng.randint(-2, 2)
                    )
                    for _ in range(5)
                },
            )

        for op in ops:
            p, q = rand_poly(), rand_poly()
            a = GR(rng.randint(-3, 3), rng.randint(-2, 2))
            lhs = apply_op(op, p.scaled(a) + q)
            rhs = apply_op(op, p).scaled(a) + apply_op(op, q)
            assert lhs == rhs

    @pytest.mark.parametrize("slot", [0, 1])
    def test_is_the_constraint_matrix_times_the_coefficients(self, slot):
        # the p(3,2) slot operators carry the 1/2 of the skew derivative, so
        # their term table and coefficient rows are scaled by 2
        psys = build_parabolic(3, 2)
        op, s, rng = psys.ops[slot], psys.s, random.Random(slot)
        assert op._den == 2
        for degree in (2, 3):
            monos = monomial_basis(psys.vars, degree)
            p = SpinorPoly(psys.vars, s, {
                (rng.choice(monos), rng.randrange(s)):
                    GR(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2))
                for _ in range(6)
            })
            x = {monos.index(e) * s + mu: v for (e, mu), v in p.coeffs.items()}
            rows, ncols = _constraint_rows([op], psys.vars, s, degree)
            targets = monomial_basis(psys.vars, degree - 1)
            assert (len(rows), ncols) == (len(targets) * s, len(monos) * s)
            product = {}
            for rid, row in enumerate(rows):
                total = sum((GR(a, b) * x[c] for c, (a, b) in row.items() if c in x), GR(0))
                if total:
                    t_idx, nu = divmod(rid, s)
                    product[(targets[t_idx], nu)] = total / op._den
            assert product and apply_op(op, p).coeffs == product

    def test_mixed_partials_commute(self):
        rng = random.Random(4)
        vs = euclidean_vars(3, 2)
        ident = ExactMatrix.identity(2)
        one = {(0,) * 6: GR(1)}
        d_01 = DiffOp(vs, 2, [(one, 0, ident)])
        d_52 = DiffOp(vs, 2, [(one, 5, ident)])
        monos = monomial_basis(vs, 3)
        p = SpinorPoly(
            vs,
            2,
            {
                (rng.choice(monos), rng.randrange(2)): GR(rng.randint(-4, 4))
                for _ in range(8)
            },
        )
        assert apply_op(d_01, apply_op(d_52, p)) == apply_op(d_52, apply_op(d_01, p))


class TestSolutionSpace:
    def test_degree_zero_gives_constants(self):
        rep = build_spinor_rep(3)
        vars, ops = dirac_ops(rep, 3, 2)
        assert solution_space(ops, vars, rep.s, 0).dim == rep.s

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (3, 3)])
    def test_linear_solutions(self, n, k):
        rep = build_spinor_rep(n)
        vars, ops = dirac_ops(rep, n, k)
        assert solution_space(ops, vars, rep.s, 1).dim == k * rep.s * (n - 1)

    def test_quadratic_dimension_small(self):
        rep = build_spinor_rep(3)
        vars, ops = dirac_ops(rep, 3, 2)
        assert solution_space(ops, vars, rep.s, 2).dim == 18

    def test_cubic_dimension_small(self):
        rep = build_spinor_rep(3)
        vars, ops = dirac_ops(rep, 3, 2)
        assert solution_space(ops, vars, rep.s, 3).dim == 32

    def test_solutions_annihilated(self):
        rep = build_spinor_rep(3)
        vars, ops = dirac_ops(rep, 3, 2)
        basis = solution_space(ops, vars, rep.s, 2)
        for psi in basis_polynomials(vars, rep.s, 2, basis):
            for op in ops:
                assert apply_op(op, psi).is_zero()

    def test_grading_violation_rejected(self):
        vs = VariableSet.of(["x", "y"], [1, 2])
        ident = ExactMatrix.identity(1)
        mixed = DiffOp(vs, 1, [({(0, 0): GR(1)}, 0, ident), ({(0, 0): GR(1)}, 1, ident)])
        with pytest.raises(ValueError):
            solution_space([mixed], vs, 1, 2)

    def test_raising_op_rejected(self):
        vs = VariableSet.of(["x", "y"], [1, 2])
        ident = ExactMatrix.identity(1)
        raising = DiffOp(vs, 1, [({(0, 1): GR(1)}, 0, ident)])
        with pytest.raises(ValueError):
            solution_space([raising], vs, 1, 2)


class TestSolveCorrection:
    """Complete x^2 to a solution of one first-order operator in x, y."""

    vs = VariableSet.of(["x", "y"])

    def op(self, cy):
        # d/dx + cy d/dy on scalar polynomials
        one, ident = {(0, 0): GR(1)}, ExactMatrix.identity(1)
        return DiffOp(self.vs, 1, [(one, 0, ident), ({(0, 0): GR(cy)}, 1, ident)])

    def test_inconsistent_system(self):
        base = SpinorPoly.monomial(self.vs, 1, (2, 0), 0)
        # d/dx (x^2 + b y^2) = 2x for every b
        h, rank = solve_correction([self.op(0)], base, [(0, 2)], {})
        assert h is None and rank == 0

    def test_unique_correction_on_unknown_monomials(self):
        base = SpinorPoly.monomial(self.vs, 1, (2, 0), 0)
        unknown = [(1, 1), (0, 2)]
        op = self.op(-1)
        h, rank = solve_correction([op], base, unknown, {})
        assert rank == 2
        # (d/dx - d/dy) (x + y)^2 = 0
        assert h.coeffs == {((1, 1), 0): GR(2), ((0, 2), 0): GR(1)}
        assert {exps for exps, _ in h.coeffs} <= set(unknown)
        assert apply_op(op, base + h).is_zero()

    def test_mixed_degrees_rejected(self):
        base = SpinorPoly.monomial(self.vs, 1, (2, 0), 0)
        with pytest.raises(ValueError):
            solve_correction([self.op(1)], base, [(0, 1)], {})

    def test_base_on_an_unknown_monomial_rejected(self):
        base = SpinorPoly.monomial(self.vs, 1, (1, 1), 0)
        with pytest.raises(ValueError):
            solve_correction([self.op(-1)], base, [(1, 1), (0, 2)], {})

    def test_warm_memo_still_rejects_a_base_on_an_unknown_or_of_another_degree(self):
        op, unknown, factors = self.op(-1), [(1, 1), (0, 2)], {}
        good = SpinorPoly.monomial(self.vs, 1, (2, 0), 0)
        solve_correction([op], good, unknown, factors)
        assert len(factors) == 1
        for exps in ((1, 1), (3, 0)):
            base = SpinorPoly.monomial(self.vs, 1, exps, 0)
            with pytest.raises(ValueError, match="apart and of one degree"):
                solve_correction([op], base, unknown, factors)
        mixed = good + SpinorPoly.monomial(self.vs, 1, (0, 1), 0)
        with pytest.raises(ValueError, match="apart and of one degree"):
            solve_correction([op], mixed, unknown, factors)
        assert len(factors) == 1

    def test_zero_base_takes_the_degree_of_the_unknowns(self):
        zero = SpinorPoly.zero(self.vs, 1)
        h, rank = solve_correction([self.op(-1)], zero, [(1, 1), (0, 2)], {})
        assert h.is_zero() and rank == 2
        with pytest.raises(ValueError):
            solve_correction([self.op(-1)], zero, [(1, 1), (0, 1)], {})
        with pytest.raises(ValueError):
            solve_correction([self.op(-1)], zero, [], {})

    def test_memo_reuses_one_factor_per_degree_and_unknowns(self):
        op, factors = self.op(-1), {}
        for unknown, exps in (([(1, 1), (0, 2)], (2, 0)), ([(0, 2)], (2, 0)),
                              ([(0, 3)], (3, 0)), ([(1, 1), (0, 2)], (2, 0))):
            base = SpinorPoly.monomial(self.vs, 1, exps, 0, GR(2, 1))
            assert solve_correction([op], base, unknown, factors) == solve_correction(
                [op], base, unknown, {}
            )
        assert sorted(k[0] for k in factors) == [2, 2, 3]


def test_spinor_poly_substitution():
    vs = euclidean_vars(3, 2)
    p = SpinorPoly(vs, 2, {((1, 1, 0, 0, 0, 0), 0): GR(2), ((0, 0, 2, 0, 0, 0), 1): GR(3)})
    q = p.substitute_zero([0, 1])
    assert q.coeffs == {((0, 0, 2, 0, 0, 0), 1): GR(3)}


class TestMalformedExponents:
    """Bad exponents fail when the operator or polynomial is built."""

    def test_op_coefficient_of_the_wrong_length(self):
        vs = VariableSet.of(["a", "b", "c"])
        with pytest.raises(ValueError, match="3 nonnegative"):
            DiffOp(vs, 1, [({(0, 0): GR(1)}, 0, ExactMatrix.identity(1))])

    def test_op_coefficient_with_a_negative_exponent(self):
        vs = VariableSet.of(["a", "b"])
        with pytest.raises(ValueError, match="nonnegative"):
            DiffOp(vs, 1, [({(-1, 0): GR(1)}, 0, ExactMatrix.identity(1))])

    def test_poly_with_a_negative_exponent(self):
        vs = VariableSet.of(["a"])
        with pytest.raises(ValueError, match="negative exponent"):
            SpinorPoly.monomial(vs, 1, (-1,), 0)
