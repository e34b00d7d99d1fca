from itertools import combinations_with_replacement
from math import comb

import pytest

from conftest import lifted_basis
from kdirac import euclidean, polynomials
from kdirac.clifford import build_spinor_rep
from kdirac.euclidean import (
    build_euclidean,
    chart_ops,
    chart_vars,
    cubic_dim_formula,
    extend_from_initial_data,
    initial_dim_formula,
    level0_ordering,
    level1_ordering,
    quadratic_component_dims,
    quadratic_dim_formula,
    restriction_commutator_check,
)
from kdirac.linalg import GaussRational, RowFactor, rank_rows
from kdirac.polynomials import (
    SpinorPoly,
    apply_op,
    scalar_multiply,
    solution_space,
)
from kdirac.tableau import InvariantViolation, cartan_test, prolong, search_ordering, tensors

GR = GaussRational


@pytest.fixture(scope="module")
def sys32():
    return build_euclidean(3, 2)


@pytest.fixture(scope="module")
def sys42():
    return build_euclidean(4, 2)


class TestBuild:
    @pytest.mark.parametrize(
        "n,k,expected", [(3, 2, 8), (4, 2, 24), (3, 3, 12)]
    )
    def test_tableau_dimension(self, n, k, expected):
        assert build_euclidean(n, k).tableau().dim == expected

    def test_parameter_bounds(self):
        with pytest.raises(ValueError, match="n must be at least 3, got 2"):
            build_euclidean(2, 2)
        with pytest.raises(ValueError, match="k must be at least 2, got 1"):
            build_euclidean(4, 1)


class TestLevelZero:
    def test_characters_and_failure(self, sys32):
        report = cartan_test(sys32.tableau(), level0_ordering(sys32))
        s, n, k = sys32.s, sys32.n, sys32.k
        assert report.characters == (s,) * (k * (n - 1)) + (0,) * k
        assert report.rhs_cartan_test == 20
        assert report.dim_prolongation == 18
        assert not report.involutive

    def test_quadratic_dim_both_routes(self, sys32):
        t = sys32.tableau()
        assert lifted_basis(prolong(t).lifted).dim == 18
        assert sys32.monogenic_space(2).dim == 18
        assert quadratic_dim_formula(3, 2, 2) == 18


class TestLevelOne:
    def test_paper_ordering_characters_n3(self, sys32):
        lifted = prolong(sys32.tableau()).lifted
        report = cartan_test(lifted, level1_ordering(sys32))
        assert report.characters == (8, 6, 4, 0, 0, 0)
        assert report.rhs_cartan_test == 32
        assert report.dim_prolongation == sys32.monogenic_dim(3) == 32
        assert report.involutive

    def test_greedy_matches_paper_rhs_n3(self, sys32):
        lifted = prolong(sys32.tableau()).lifted
        greedy = search_ordering(lifted, "greedy")
        report = cartan_test(lifted, greedy)
        assert report.dim_prolongation == sys32.monogenic_dim(3)
        assert report.rhs_cartan_test == 32
        assert report.involutive

    def test_greedy_k3_n4(self):
        sys43 = build_euclidean(4, 3)
        lifted = prolong(sys43.tableau()).lifted
        greedy = search_ordering(lifted, "greedy")
        report = cartan_test(lifted, greedy)
        assert report.dim_prolongation == sys43.monogenic_dim(3)
        assert report.characters == (36, 32, 28, 24, 20, 16, 12) + (0,) * 5
        assert report.rhs_cartan_test == report.dim_prolongation == 560
        assert report.involutive

    def test_paper_ordering_characters_n4(self, sys42):
        lifted = prolong(sys42.tableau()).lifted
        report = cartan_test(lifted, level1_ordering(sys42))
        assert report.dim_prolongation == sys42.monogenic_dim(3)
        s, n = sys42.s, sys42.n
        expected = tuple((2 * n - 1 - j) * s for j in range(1, 2 * n - 2)) + (0, 0, 0)
        assert report.characters == expected
        assert report.rhs_cartan_test == 200
        assert report.involutive

    def test_double_prolongation_matches_cubic_space(self, sys32):
        assert len(tensors(sys32.tableau(), 2)) == sys32.monogenic_dim(3) == 32
        assert cubic_dim_formula(3, 2) == 32

    @pytest.mark.parametrize("n", range(3, 8))
    def test_level1_ordering_is_the_chart(self, n):
        """Row j of the paper flag is dt_{j+1} in x-coordinates: up to one
        scale per row, the chart table's coefficients of d/dt_{j+1} in each
        d/dx_{alpha i}, and nothing else."""
        sys = euclidean.EuclideanSystem(build_spinor_rep(n), 2)
        rows = level1_ordering(sys).rows
        table = euclidean._chart_data(n)[1]
        scales = [set() for _ in rows]
        for (a, i), terms in table.items():
            for j, coeff in terms:
                scales[j].add(GR(*rows[j][sys.var_index(a, i)]) / coeff)
        assert [len(scale) for scale in scales] == [1] * 2 * n
        assert sum(map(len, rows)) == sum(map(len, table.values()))

    def test_level1_ordering_n3(self, sys32):
        """The paper's flag for n = 3: e1 (x) eps_1, e2 (x) eps_2, then
        (e1 +- e2) (x) eps_3, e2 (x) eps_1 and e1 (x) eps_2."""
        one, minus = (1, 0), (-1, 0)
        assert level1_ordering(sys32).rows == [
            {0: one}, {3: one}, {4: one, 5: one}, {4: one, 5: minus}, {1: one}, {2: one}]

    def test_level1_ordering_requires_k2(self):
        with pytest.raises(ValueError):
            level1_ordering(build_euclidean(3, 3))


class TestComponents:
    @pytest.mark.parametrize("n,expected", [(3, (18, 0)), (4, (72, 8)), (5, (120, 20)),
                                            (6, (360, 72))], ids=["n3", "n4", "n5", "n6"])
    def test_split(self, n, expected):
        assert quadratic_component_dims(build_euclidean(n, 2)) == expected


class TestInitialDimFormula:
    @pytest.mark.parametrize("r,expected", [(2, 18), (3, 32), (4, 50)])
    def test_n3_values(self, r, expected):
        assert initial_dim_formula(3, r) == expected

    def test_oracle_degree_four(self, sys32):
        assert sys32.monogenic_dim(4) == 50

    def test_degree_bound(self):
        with pytest.raises(ValueError):
            initial_dim_formula(3, 1)


class TestChart:
    def test_chart_solutions_match_matrix_coordinates(self, sys32):
        # the chart is an invertible linear change, so homogeneous solution
        # dimensions agree with the matrix-coordinate computation
        ops = chart_ops(sys32)
        vars = chart_vars(3)
        for degree, expected in [(1, 8), (2, 18)]:
            assert solution_space(ops, vars, sys32.s, degree).dim == expected


class TestExtension:
    def test_zero_data(self, sys32):
        vars = chart_vars(3)
        zero = SpinorPoly.zero(vars, sys32.s)
        assert extend_from_initial_data(sys32, zero, zero).is_zero()

    def test_single_monomial_extension(self, sys32):
        vars = chart_vars(3)
        zero = SpinorPoly.zero(vars, sys32.s)
        g1 = SpinorPoly.monomial(vars, sys32.s, (2, 0, 0, 0, 0, 0), 0)
        psi = extend_from_initial_data(sys32, g1, zero)
        for op in chart_ops(sys32):
            assert apply_op(op, psi).is_zero()
        # leading part: restrict to the three trailing chart variables = 0
        lead = psi.substitute_zero([3, 4, 5])
        assert lead == g1

    def test_data_in_trailing_variables_rejected(self, sys32):
        vars = chart_vars(3)
        zero = SpinorPoly.zero(vars, sys32.s)
        bad = SpinorPoly.monomial(vars, sys32.s, (0, 0, 0, 2, 0, 0), 0)
        with pytest.raises(ValueError):
            extend_from_initial_data(sys32, bad, zero)

    def test_extension_spans_quadratic_space(self, sys32):
        vars = chart_vars(3)
        s = sys32.s
        zero = SpinorPoly.zero(vars, s)
        from kdirac.polynomials import monomial_basis

        leading = [
            e for e in monomial_basis(vars, 2) if not any(e[t] for t in (3, 4, 5))
        ]
        count = 0
        for e in leading:
            for mu in range(s):
                g1 = SpinorPoly.monomial(vars, s, e, mu)
                psi = extend_from_initial_data(sys32, g1, zero)
                assert psi.substitute_zero([3, 4, 5]) == g1
                count += 1
        lower = [
            e for e in monomial_basis(vars, 1) if not any(e[t] for t in (3, 4, 5))
        ]
        for e in lower:
            for mu in range(s):
                g2 = SpinorPoly.monomial(vars, s, e, mu)
                psi = extend_from_initial_data(sys32, zero, g2)
                count += 1
        assert count == initial_dim_formula(3, 2)


    def test_e42_restricts_to_its_data(self, sys42):
        # chart t_1..t_8 (0-based 0..7): data in t_1..t_5, t_6 carries g2
        vars = chart_vars(4)
        s = sys42.s
        zero = SpinorPoly.zero(vars, s)
        g1 = SpinorPoly(vars, s, {((1, 0, 1, 0, 0, 0, 0, 0), 1): GR(1),
                                  ((0, 0, 0, 0, 2, 0, 0, 0), 3): GR(2, -1)})
        g2 = SpinorPoly(vars, s, {((0, 1, 0, 0, 0, 0, 0, 0), 0): GR(0, 1),
                                  ((0, 0, 0, 1, 0, 0, 0, 0), 2): GR(-3)})
        t6 = {(0, 0, 0, 0, 0, 1, 0, 0): GR(1)}
        for a, b in ((g1, zero), (zero, g2), (g1, g2)):
            psi = extend_from_initial_data(sys42, a, b)
            assert psi.weighted_degrees() == {2}
            data = {
                key: v
                for key, v in psi.coeffs.items()
                if key[0][5:] in ((0, 0, 0), (1, 0, 0))
            }
            assert SpinorPoly(vars, s, data) == a + scalar_multiply(t6, b)


def chart_data(sys, r):
    """Every unit datum (g1, g2) of degree r: spinor monomials of degree r
    (g1) and r - 1 (g2) in the leading chart variables t_1..t_{2n-3}."""
    vars, s = chart_vars(sys.n), sys.s
    zero = SpinorPoly.zero(vars, s)
    data = []
    for degree in (r, r - 1):
        for combo in combinations_with_replacement(range(2 * sys.n - 3), degree):
            e = [0] * len(vars)
            for v in combo:
                e[v] += 1
            for mu in range(s):
                g = SpinorPoly.monomial(vars, s, tuple(e), mu)
                data.append((g, zero) if degree == r else (zero, g))
    return data


def coefficient_rank(polys):
    cols = {}
    rows = [{cols.setdefault(key, len(cols)): v for key, v in p.coeffs.items()}
            for p in polys]
    return rank_rows(rows)


class TestExtensionBasis:
    def test_e32_degree4_whole_data_basis(self):
        sys = build_euclidean(3, 2)
        n, r, s = 3, 4, sys.s
        t = 2 * n - 3  # 0-based index of t_{2n-2}, which carries g2
        trailing = [t, t + 1, t + 2]
        data = chart_data(sys, r)
        v = 2 * n - 4
        assert len(data) == s * (comb(r + v, v) + comb(r - 1 + v, v)) == 50
        results = [extend_from_initial_data(sys, g1, g2) for g1, g2 in data]
        for psi, (g1, g2) in zip(results, data):
            assert psi.substitute_zero(trailing) == g1
            linear = {
                (e[:t] + (0,) + e[t + 1:], mu): c
                for (e, mu), c in psi.coeffs.items()
                if (e[t], e[t + 1], e[t + 2]) == (1, 0, 0)
            }
            assert SpinorPoly(psi.vars, s, linear) == g2
        assert coefficient_rank(results) == 50

    def test_results_do_not_depend_on_call_order(self):
        data = chart_data(build_euclidean(3, 2), 3)
        forward = build_euclidean(3, 2)
        backward = build_euclidean(3, 2)
        first = [extend_from_initial_data(forward, g1, g2) for g1, g2 in data]
        last = [extend_from_initial_data(backward, g1, g2) for g1, g2 in data[::-1]]
        assert first == last[::-1]


class TestFactorMemo:
    def test_fresh_system_has_no_factor(self):
        used = build_euclidean(3, 2)
        g1, g2 = chart_data(used, 2)[0]
        extend_from_initial_data(used, g1, g2)
        assert list(used._completions) == [2]
        fresh = build_euclidean(3, 2)
        assert fresh._completions == {} and fresh._chart_ops is None
        assert chart_ops(fresh) is chart_ops(fresh)

    def test_systems_and_degrees_never_share_a_factor(self):
        e32, e42 = build_euclidean(3, 2), build_euclidean(4, 2)
        for sys in (e32, e42):
            for r in (2, 3):
                g1, g2 = chart_data(sys, r)[-1]
                extend_from_initial_data(sys, g1, g2)
        # full rank over the unknowns: 12 and 40 monomials times s = 2 for
        # e(3,2), 16 and 70 monomials times s = 4 for e(4,2)
        ranks = [{r: f.rank for r, (*_, f) in sys._completions.items()}
                 for sys in (e32, e42)]
        assert ranks == [{2: 24, 3: 80}, {2: 64, 3: 280}]
        factors = [f for sys in (e32, e42) for *_, f in sys._completions.values()]
        assert len({id(f) for f in factors}) == 4

    def test_second_extension_of_a_degree_enumerates_and_factors_nothing(
        self, count_calls
    ):
        sys = build_euclidean(3, 2)
        data = chart_data(sys, 3)
        extend_from_initial_data(sys, *data[0])
        calls = count_calls([(polynomials, "_grade"), (polynomials, "monomial_basis"),
                             (polynomials, "RowFactor")])
        warm = [extend_from_initial_data(sys, g1, g2) for g1, g2 in data[1:]]
        assert calls == {"_grade": 0, "monomial_basis": 0, "RowFactor": 0}
        fresh = [extend_from_initial_data(build_euclidean(3, 2), g1, g2)
                 for g1, g2 in (data[1], data[-1])]
        assert fresh == [warm[0], warm[-1]]

    def test_short_rank_names_the_disagreeing_numbers(self, monkeypatch):
        class ShortRank(RowFactor):
            __slots__ = ()

            def __init__(self, rows, ncols):
                super().__init__(rows, ncols)
                self.rank -= 1

        monkeypatch.setattr(polynomials, "RowFactor", ShortRank)
        sys = build_euclidean(3, 2)
        g1, g2 = chart_data(sys, 2)[0]
        with pytest.raises(InvariantViolation) as err:
            extend_from_initial_data(sys, g1, g2)
        message = str(err.value)
        assert "e(3,2) degree 2" in message and "not unique" in message
        assert "rank 23, len(unknown) * s = 24" in message


class TestRestriction:
    def test_constant_spinor(self, sys32):
        psi = SpinorPoly.monomial(
            sys32.vars, sys32.s, sys32.vars.zero_exponents(), 1
        )
        assert restriction_commutator_check(sys32, psi)

    def test_quadratic_basis(self, sys32):
        for psi in sys32.monogenic_polynomials(2):
            assert restriction_commutator_check(sys32, psi)

    def test_non_monogenic_rejected(self, sys32):
        bad = SpinorPoly.monomial(sys32.vars, sys32.s, (1, 0, 0, 0, 0, 0), 0)
        with pytest.raises(ValueError):
            restriction_commutator_check(sys32, bad)
