import random
from fractions import Fraction
from math import comb

import pytest

from kdirac import polynomials
from kdirac.clifford import build_spinor_rep
from kdirac.euclidean import EuclideanSystem, build_euclidean, chart_ops, chart_vars, cubic_dim_formula
from kdirac.linalg import ExactMatrix, GaussRational, InvariantViolation, RowFactor
from kdirac.parabolic import build_parabolic, lift_check
from kdirac.polynomials import (
    DiffOp,
    SpinorPoly,
    VariableSet,
    _constraint_rows,
    apply_op,
    basis_polynomials,
    monomial_basis,
    scalar_multiply,
    solution_dim,
    solution_space,
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
    """``SlotSystem.complete`` completes x^2 to a solution of one first-order
    operator in x, y. Any system holds the memo; the toy keys are its own."""

    vs = VariableSet.of(["x", "y"])

    def op(self, cy):
        # d/dx + cy d/dy on scalar polynomials
        one, ident = {(0, 0): GR(1)}, ExactMatrix.identity(1)
        return DiffOp(self.vs, 1, [(one, 0, ident), ({(0, 0): GR(cy)}, 1, ident)])

    @staticmethod
    def holder():
        return EuclideanSystem(build_spinor_rep(3), 2)

    def complete(self, op, base, free, degree=2, key="toy", holder=None, unique=False):
        return (holder or self.holder()).complete([op], base, key, degree, free, "toy", unique)

    def test_inconsistent_system(self):
        base = SpinorPoly.monomial(self.vs, 1, (2, 0), 0)
        # d/dx (x^2 + b y^2) = 2x for every b
        with pytest.raises(InvariantViolation,
                           match=r"toy: completion does not exist: rank 0, len\(unknown\) \* s = 1"):
            self.complete(self.op(0), base, lambda e: e == (0, 2))

    def test_unique_correction_on_unknown_monomials(self):
        base = SpinorPoly.monomial(self.vs, 1, (2, 0), 0)
        op = self.op(-1)
        psi, rank = self.complete(op, base, lambda e: e != (2, 0), unique=True)
        assert rank == 2
        # (d/dx - d/dy) (x + y)^2 = 0
        assert psi.coeffs == {((2, 0), 0): GR(1), ((1, 1), 0): GR(2), ((0, 2), 0): GR(1)}
        assert apply_op(op, psi).is_zero()

    def test_mixed_degrees_rejected(self):
        base = SpinorPoly.monomial(self.vs, 1, (2, 0), 0)
        with pytest.raises(InvariantViolation, match=r"toy: base monomial \(2, 0\) is free"
                                                     " or not of degree 1"):
            self.complete(self.op(1), base, lambda e: e == (0, 1), degree=1)

    def test_base_on_an_unknown_monomial_rejected(self):
        base = SpinorPoly.monomial(self.vs, 1, (1, 1), 0)
        with pytest.raises(InvariantViolation, match=r"base monomial \(1, 1\) is free"):
            self.complete(self.op(-1), base, lambda e: e != (2, 0))

    def test_warm_memo_still_rejects_a_base_on_an_unknown_or_of_another_degree(self):
        op, free, holder = self.op(-1), lambda e: e != (2, 0), self.holder()
        good = SpinorPoly.monomial(self.vs, 1, (2, 0), 0)
        self.complete(op, good, free, holder=holder)
        assert list(holder._completions) == ["toy"]
        for exps in ((1, 1), (3, 0)):
            base = SpinorPoly.monomial(self.vs, 1, exps, 0)
            with pytest.raises(InvariantViolation, match="is free or not of degree 2"):
                self.complete(op, base, free, holder=holder)
        mixed = good + SpinorPoly.monomial(self.vs, 1, (0, 1), 0)
        with pytest.raises(InvariantViolation, match="is free or not of degree 2"):
            self.complete(op, mixed, free, holder=holder)
        assert list(holder._completions) == ["toy"]

    def test_zero_base_takes_the_degree_of_the_unknowns(self):
        zero = SpinorPoly.zero(self.vs, 1)
        psi, rank = self.complete(self.op(-1), zero, lambda e: e != (2, 0), unique=True)
        assert psi.is_zero() and rank == 2
        psi, rank = self.complete(self.op(-1), zero, lambda e: False, degree=3)
        assert psi.is_zero() and rank == 0

    def test_short_rank_fails_only_when_unique(self):
        # d/dx (a xy + b y^2) = a y: b is free, so the completion of 0 is not unique
        zero, free = SpinorPoly.zero(self.vs, 1), lambda e: e != (2, 0)
        psi, rank = self.complete(self.op(0), zero, free)
        assert psi.is_zero() and rank == 1
        with pytest.raises(InvariantViolation,
                           match=r"toy: completion is not unique: rank 1, len\(unknown\) \* s = 2"):
            self.complete(self.op(0), zero, free, unique=True)

    def test_result_left_nonzero_by_an_op_is_refused(self, monkeypatch):
        class Zero(RowFactor):
            __slots__ = ()

            def solve(self, x):
                return {}

        monkeypatch.setattr(polynomials, "RowFactor", Zero)
        base = SpinorPoly.monomial(self.vs, 1, (2, 0), 0)
        with pytest.raises(InvariantViolation,
                           match="toy: completion not annihilated, op 1 leaves 1 terms"):
            self.complete(self.op(-1), base, lambda e: e != (2, 0))

    def test_memo_reuses_one_factor_per_degree_and_unknowns(self):
        op, holder = self.op(-1), self.holder()
        # each base completes to a multiple of (x + y)^2 or (x + y)^3
        for key, exps in (("x2", (2, 0)), ("xy", (1, 1)), ("x3", (3, 0)), ("x2", (2, 0))):
            base = SpinorPoly.monomial(self.vs, 1, exps, 0, GR(2, 1))
            args = (op, base, lambda e, exps=exps: e != exps, sum(exps), key)
            assert self.complete(*args, holder) == self.complete(*args)
        assert sorted(holder._completions) == ["x2", "x3", "xy"]


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

    def test_scalar_factor_of_the_wrong_length(self):
        p32 = build_parabolic(3, 2)
        psi = SpinorPoly.monomial(p32.vars, p32.s, (0,) * 7, 0)
        with pytest.raises(ValueError, match="7 nonnegative"):
            scalar_multiply({(0,) * 7 + (3,): 1}, psi)
        with pytest.raises(ValueError, match="7 nonnegative"):
            scalar_multiply({(0,) * 6 + (-1,): 1}, psi)

    def test_lift_factor_of_the_wrong_length(self):
        p32 = build_parabolic(3, 2)
        psi = SpinorPoly.monomial(p32.vars, p32.s, (0,) * 7, 0)
        with pytest.raises(ValueError, match=r"scalar exponents \(0, 0, 0, 0, 0, 0, 0, 1\)"):
            lift_check(p32, psi, {(0,) * 6 + (0, 1): 1})

    def test_lift_factor_too_short(self):
        p32 = build_parabolic(3, 2)
        psi = SpinorPoly.monomial(p32.vars, p32.s, (0,) * 7, 0)
        with pytest.raises(ValueError, match=r"scalar exponents \(0, 0, 0, 0, 0, 1\) are not"
                                             " 7 nonnegative integers"):
            lift_check(p32, psi, {(0, 0, 0, 0, 0, 1): 1})


class TestSlotSystem:
    """``SlotSystem`` builds the matrix-space slot operators of the default
    field, sum_a gamma_a d/dx_{a i}, exactly as written out by hand."""

    @pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (5, 2), (6, 2), (3, 3), (4, 3)])
    def test_default_field_gives_the_dirac_slots(self, n, k):
        rep = build_spinor_rep(n)
        sys = EuclideanSystem(rep, k)
        vars, ops = dirac_ops(rep, n, k)
        assert sys.vars == vars and len(sys.ops) == k
        for built, written in zip(sys.ops, ops):
            assert (built._table, built._den) == (written._table, written._den)

    def test_matrix_labels_out_of_range_are_named(self):
        e32, p32 = build_euclidean(3, 2), build_parabolic(3, 2)
        for call, labels in ((lambda: p32.lfield(4, 1), r"\(4, 1\)"),
                             (lambda: e32.var_index(1, 3), r"\(1, 3\)"),
                             (lambda: e32.var_index(0, 1), r"\(0, 1\)")):
            with pytest.raises(ValueError, match=rf"matrix entry labels {labels} out of range"
                                                 r" 1 <= alpha <= 3, 1 <= i <= 2"):
                call()


def reference_constraint_rows(ops, vars, s, degree, monos=None):
    """The per-monomial assembly, restated: for each source monomial and
    term, lower the monomial and look its target up in a fresh index of the
    shifted degree's ``monomial_basis``."""
    if monos is None:
        monos = monomial_basis(vars, degree)
    rows = []
    for op in ops:
        target_deg = degree + op.weighted_shift()
        if target_deg < 0:
            continue
        targets = {e: i for i, e in enumerate(monomial_basis(vars, target_deg))}
        base = len(rows)
        rows += [{} for _ in range(len(targets) * s)]
        for m_idx, exps in enumerate(monos):
            for var, cexp, cols in op._table:
                e = exps[var]
                if not e:
                    continue
                lowered = [a + b for a, b in zip(exps, cexp)]
                lowered[var] -= 1
                t_row = base + targets[tuple(lowered)] * s
                for mu, column in enumerate(cols):
                    for nu, (a, b) in column:
                        row, col = rows[t_row + nu], m_idx * s + mu
                        ca, cb = row.get(col, (0, 0))
                        re, im = ca + e * a, cb + e * b
                        if re or im:
                            row[col] = (re, im)
                        else:
                            row.pop(col, None)
    return rows, len(monos) * s


def _systems():
    """(name, ops, vars, s, free) for the oracle: the slot operators of the
    k-Dirac systems, the p ones with weight-2 y variables and x-linear
    coefficients, and the k = 2 chart operators that the extension
    completes; ``free`` is a predicate that splits off a free-first order."""
    out = []
    for n, k in ((3, 2), (4, 2), (5, 2), (3, 3)):
        sys = build_euclidean(n, k)
        out.append((f"e({n},{k})", sys.ops, sys.vars, sys.s, lambda e, k=k: not any(e[:k])))
    for n, k in ((3, 2), (3, 3)):
        sys = build_parabolic(n, k)
        nk = n * k
        out.append((f"p({n},{k})", sys.ops, sys.vars, sys.s, lambda e, nk=nk: not any(e[nk:])))
    for n in (3, 4):
        sys = build_euclidean(n, 2)
        trailing = (2 * n - 3, 2 * n - 2, 2 * n - 1)
        out.append((f"chart e({n},2)", chart_ops(sys), chart_vars(n), sys.s,
                    lambda e, t=trailing: sum(e[i] for i in t) > 1))
    return out


class TestConstraintRowsOracle:
    """``_constraint_rows`` reads the ``_grade`` and ``_lowering`` tables and
    builds, row for row, what the per-monomial loop builds, for the default,
    reversed and free-first column orders at degrees 0..4."""

    @pytest.mark.parametrize("case", _systems(), ids=lambda case: case[0])
    def test_rows_match_the_per_monomial_loop(self, case):
        _name, ops, vars, s, free = case
        for degree in range(5):
            monos = monomial_basis(vars, degree)
            for order in (None, monos[::-1],
                          [e for e in monos if free(e)] + [e for e in monos if not free(e)]):
                got = _constraint_rows(ops, vars, s, degree, order)
                assert got == reference_constraint_rows(ops, vars, s, degree, order)

    def test_a_monomial_listed_twice_is_refused(self):
        sys = build_euclidean(3, 2)
        monos = monomial_basis(sys.vars, 2)
        with pytest.raises(ValueError, match=r"monomial \(2, 0, 0, 0, 0, 0\) is listed twice"):
            _constraint_rows(sys.ops, sys.vars, sys.s, 2, monos + monos[:1])

    def test_a_subset_of_monomials_keeps_only_their_columns(self):
        sys = build_parabolic(3, 2)
        monos = monomial_basis(sys.vars, 3)[::3]
        got = _constraint_rows(sys.ops, sys.vars, sys.s, 3, monos)
        assert got == reference_constraint_rows(sys.ops, sys.vars, sys.s, 3, monos)


class TestGradeTables:
    """The tables are shared read-only, keyed by the whole variable set."""

    def test_equal_names_with_other_weights_get_their_own_tables(self):
        flat, weighted = VariableSet.of(["x", "y"]), VariableSet.of(["x", "y"], [1, 2])
        assert polynomials._grade(flat, 2)[0] == ((2, 0), (1, 1), (0, 2))
        assert polynomials._grade(weighted, 2)[0] == ((2, 0), (0, 1))
        assert polynomials._lowering(flat, 2, 1, (0, 0)) == ((1, 2), (0, 1), (1, 2))
        assert polynomials._lowering(weighted, 2, 1, (0, 0)) == ((1,), (0,), (1,))

    def test_monomial_basis_is_a_fresh_list(self):
        vs = VariableSet.of(["a", "b", "c"])
        monos, index = polynomials._grade(vs, 2)
        listed = monomial_basis(vs, 2)
        assert isinstance(listed, list) and tuple(listed) == monos
        listed.reverse()
        listed.append((9, 9, 9))
        assert polynomials._grade(vs, 2) == (monos, index)
        assert monos == tuple(sorted(monos, reverse=True)) and (9, 9, 9) not in index

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_solution_dim_matches_the_basis_and_the_cubic_formula(self, n):
        sys = build_euclidean(n, 2)
        dims = {solution_dim(sys.ops, sys.vars, sys.s, 3),
                solution_space(sys.ops, sys.vars, sys.s, 3).dim}
        assert dims == {cubic_dim_formula(n, sys.s)}

    def test_a_set_built_from_lists_keys_the_same_tables(self):
        listed = VariableSet(["x", "y"], [1, 2])
        assert listed == VariableSet.of(["x", "y"], [1, 2])
        assert polynomials._grade(listed, 2) is polynomials._grade(VariableSet.of("xy", [1, 2]), 2)

    def test_the_shared_index_cannot_be_written(self):
        _monos, index = polynomials._grade(VariableSet.of("ab"), 1)
        with pytest.raises(TypeError):
            index[(9, 9)] = 0
