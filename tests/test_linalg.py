"""Exact scalar arithmetic and subspace algebra."""

import random
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from kdirac.linalg import (
    ExactMatrix,
    GaussRational,
    IMAG,
    ONE,
    RowFactor,
    SubspaceBasis,
    _echelon,
    int_kernel_rows,
    int_pivot_cols,
    kernel_rows,
    rank_rows,
    rref_rows,
    solve_rows,
    to_int_rows,
)

GR = GaussRational


def rationals():
    return st.builds(
        Fraction, st.integers(-8, 8), st.integers(1, 8)
    )


def scalars():
    return st.builds(GR, rationals(), rationals())


class TestGaussRational:
    def test_basics(self):
        x = GR(1, 2)
        y = GR(3, -1)
        assert x * y == GR(5, 5)
        assert x + y == GR(4, 1)
        assert x - y == GR(-2, 3)
        assert (x / y) * y == x
        assert -x == GR(-1, -2)
        assert IMAG * IMAG == GR(-1)

    def test_mixed_types(self):
        assert GR(2) == 2
        assert 2 * GR(Fraction(1, 2)) == ONE
        assert GR(1) / 2 == GR(Fraction(1, 2))
        assert 1 - GR(0, 1) == GR(1, -1)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            GR(0.5)

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            ONE / GR(0)

    def test_hash_consistent(self):
        assert hash(GR(Fraction(2, 4), 0)) == hash(GR(Fraction(1, 2)))

    @settings(max_examples=50)
    @given(scalars(), scalars(), scalars())
    def test_field_axioms_sample(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        if b:
            assert (a / b) * b == a


class TestRref:
    def test_identity(self):
        piv, rows = rref_rows(ExactMatrix.identity(2).row_dicts())
        assert piv == [0, 1]
        assert rows == [{0: ONE}, {1: ONE}]

    def test_zero_matrix(self):
        assert rref_rows(ExactMatrix(3, 4).row_dicts()) == ([], [])

    def test_dependent_complex_rows(self):
        # second row is i times the first
        piv, rows = rref_rows([{0: GR(1), 1: IMAG}, {0: IMAG, 1: GR(-1)}])
        assert piv == [0]
        assert rows == [{0: ONE, 1: IMAG}]

    def test_normalises_pivots(self):
        piv, rows = rref_rows([{0: GR(0, 2), 1: GR(4)}])
        assert piv == [0]
        assert rows == [{0: ONE, 1: GR(0, -2)}]

    def test_rank_rows_matches(self):
        rng = random.Random(7)
        for _ in range(15):
            rows = [
                {
                    c: GR(rng.randint(-2, 2), rng.randint(-1, 1))
                    for c in rng.sample(range(6), rng.randint(1, 4))
                }
                for _ in range(rng.randint(1, 6))
            ]
            rows = [{c: v for c, v in row.items() if v} for row in rows]
            piv, _ = rref_rows(rows)
            assert len(piv) == rank_rows(rows)


def small_scalars():
    small = st.builds(Fraction, st.integers(-2, 2), st.sampled_from([1, 1, 2, 3]))
    return st.builds(GR, small, small)


def sparse_rows(ncols=7):
    row = st.dictionaries(st.integers(0, ncols - 1), small_scalars(), max_size=4)
    return st.lists(row, max_size=7).map(
        lambda rows: [{c: v for c, v in r.items() if v} for r in rows]
    )


def to_sympy(v):
    return sympy.Rational(v.re.numerator, v.re.denominator) + sympy.I * sympy.Rational(
        v.im.numerator, v.im.denominator
    )


class TestPivotColumns:
    @settings(max_examples=60, deadline=None)
    @given(sparse_rows())
    def test_forward_pivots_match_rref_and_sympy(self, rows):
        pivots = int_pivot_cols(to_int_rows(rows))
        assert pivots == rref_rows(rows)[0]
        dense = sympy.Matrix(
            len(rows), 7, lambda r, c: to_sympy(rows[r].get(c, GR(0)))
        )
        assert pivots == list(dense.rref()[1])
        assert len(pivots) == rank_rows(rows)

    def test_to_int_rows_uses_one_common_denominator(self):
        # the second vector has no denominator of its own; it is doubled too
        half = GR(Fraction(1, 2))
        vecs = [{0: half, 1: ONE}, {0: ONE, 1: GR(3)}]
        assert to_int_rows(vecs) == [{0: (1, 0), 1: (2, 0)}, {0: (2, 0), 1: (6, 0)}]


def to_qqi(v):
    return QQ_I(QQ(v.re.numerator, v.re.denominator), QQ(v.im.numerator, v.im.denominator))


def from_qqi(z):
    return GR(Fraction(int(z.x.numerator), int(z.x.denominator)),
              Fraction(int(z.y.numerator), int(z.y.denominator)))


class TestIntKernel:
    @settings(max_examples=60, deadline=None)
    @given(sparse_rows())
    def test_matches_sympy_nullspace_with_least_denominator(self, rows):
        basis = int_kernel_rows(to_int_rows(rows), 7)
        dense = [[to_qqi(row.get(c, GR(0))) for c in range(7)] for row in rows]
        null = DomainMatrix(dense, (len(rows), 7), QQ_I).nullspace().to_list()
        assert basis == SubspaceBasis.from_vectors(7, [[from_qqi(z) for z in v] for v in null])
        denominators = [d for vec in basis.vectors for v in vec.values()
                        for d in (v.re.denominator, v.im.denominator)]
        assert basis.den == lcm(*denominators)
        assert basis.rows == to_int_rows(basis.vectors)

    def test_kernel_vectors_lead_with_one_at_free_columns(self):
        # x0 + 2 x2 = 0 and 2 x1 + x2 = 0: eliminating from the last column
        # leaves x0 free, and the kernel (4, 1, -2) / 4 leads with 1 there
        basis = int_kernel_rows([{0: (1, 0), 2: (2, 0)}, {1: (2, 0), 2: (1, 0)}], 3)
        assert basis.pivots == [0] and basis.den == 4
        assert basis.rows == [{0: (4, 0), 1: (1, 0), 2: (-2, 0)}]
        assert basis.vectors == [{0: ONE, 1: GR(Fraction(1, 4)), 2: GR(Fraction(-1, 2))}]


class TestKernel:
    def test_identity_kernel_trivial(self):
        assert kernel_rows(ExactMatrix.identity(3).row_dicts(), 3).dim == 0

    def test_zero_matrix_full_kernel(self):
        basis = kernel_rows(ExactMatrix(2, 5).row_dicts(), 5)
        assert basis.dim == 5
        assert basis.vectors == [{c: ONE} for c in range(5)]

    def test_ones_row(self):
        basis = kernel_rows([{0: ONE, 1: ONE}], 2)
        assert basis.dim == 1
        assert basis.vectors == [{0: ONE, 1: GR(-1)}]

    def test_rank_nullity_and_annihilation(self):
        rng = random.Random(3)
        for _ in range(20):
            rows, cols = rng.randint(1, 5), rng.randint(1, 6)
            m = ExactMatrix(
                rows,
                cols,
                {
                    (r, c): GR(rng.randint(-3, 3), rng.randint(-1, 1))
                    for r in range(rows)
                    for c in range(cols)
                    if rng.random() < 0.6
                },
            )
            md = m.row_dicts()
            basis = kernel_rows(md, cols)
            assert rank_rows(md) + basis.dim == cols
            for vec in basis.vectors:
                for row in md:
                    acc = GR(0)
                    for c, v in row.items():
                        acc = acc + v * vec.get(c, GR(0))
                    assert not acc


def random_subspace(rng, ambient, dim):
    vecs = [
        {c: GR(rng.randint(-3, 3), rng.randint(-1, 1)) for c in range(ambient)}
        for _ in range(dim)
    ]
    return SubspaceBasis.from_vectors(ambient, vecs)


class TestSubspaces:
    def test_canonical_bases_bit_identical(self):
        rng = random.Random(17)
        for _ in range(10):
            a = random_subspace(rng, 6, 3)
            # re-mix the basis with a random invertible transformation
            while True:
                mix = [[rng.randint(-3, 3) for _ in range(a.dim)] for _ in range(a.dim)]
                if rank_rows(
                    [{c: GR(v) for c, v in enumerate(row) if v} for row in mix]
                ) == a.dim:
                    break
            mixed = []
            for row in mix:
                acc = {}
                for j, coeff in enumerate(row):
                    if not coeff:
                        continue
                    for c, v in a.vectors[j].items():
                        acc[c] = acc.get(c, GR(0)) + coeff * v
                mixed.append({c: v for c, v in acc.items() if v})
            b = SubspaceBasis.from_vectors(6, mixed)
            assert a == b

    def test_contains_rejects_outside_vector(self):
        a = SubspaceBasis.from_vectors(3, [{0: ONE}, {1: ONE}])
        assert not a.contains({2: ONE})
        assert a.contains({0: GR(5), 1: GR(0, 7)})


class TestSolve:
    def test_unique_solution(self):
        rows = [{0: GR(1), 1: GR(1)}, {0: GR(1), 1: GR(-1)}]
        sols, rank = solve_rows(rows, 2, [{0: GR(2), 1: GR(0)}])
        assert rank == 2
        assert sols[0] == {0: ONE, 1: ONE}

    def test_inconsistent_detected(self):
        rows = [{0: GR(1)}, {0: GR(1)}]
        sols, _ = solve_rows(rows, 1, [{0: GR(1), 1: GR(2)}, {0: GR(1), 1: GR(1)}])
        assert sols[0] is None
        assert sols[1] == {0: ONE}

    def test_underdetermined_particular(self):
        rows = [{0: GR(1), 1: GR(1)}]
        sols, rank = solve_rows(rows, 2, [{0: GR(3)}])
        assert rank == 1
        x = sols[0]
        total = x.get(0, GR(0)) + x.get(1, GR(0))
        assert total == GR(3)


def per_datum_solve(rows, ncols, x):
    """The solve a factor replaces: the block before ``ncols`` as the system
    and the data block applied to x as the right-hand side."""
    system, rhs = [], {}
    for i, row in enumerate(rows):
        b = GR(0)
        for c, v in row.items():
            if c >= ncols:
                b = b + v * x.get(c, GR(0))
        if b:
            rhs[i] = b
        system.append({c: v for c, v in row.items() if c < ncols})
    solutions, rank = solve_rows(system, ncols, [rhs])
    return solutions[0], rank


def data_vectors(ncols=7, unknown=3):
    entry = st.one_of(st.just(GR(0)), small_scalars())
    return st.dictionaries(st.integers(unknown, ncols - 1), entry, max_size=4).map(
        lambda x: {c: v for c, v in x.items() if v}
    )


class TestRowFactor:
    """One factor, many data: each answer equals a fresh solve of its own."""

    @settings(max_examples=80, deadline=None)
    @given(sparse_rows(), st.lists(data_vectors(), min_size=1, max_size=4))
    def test_matches_a_fresh_solve_per_datum(self, rows, data):
        factor = RowFactor(to_int_rows(rows), 3)
        for x in data:
            expected, rank = per_datum_solve(rows, 3, x)
            assert factor.rank == rank == rank_rows(
                [{c: v for c, v in r.items() if c < 3} for r in rows]
            )
            h = factor.solve(x)
            assert h == expected
            augmented = [
                {**{c: v for c, v in r.items() if c < 3},
                 3: sum((v * x.get(c, GR(0)) for c, v in r.items() if c >= 3), GR(0))}
                for r in rows
            ]
            consistent = rank_rows(augmented) == rank
            assert (h is not None) == consistent
            if h is not None:
                assert set(h) <= set(range(3))
                for r in rows:
                    total = sum((v * h[c] if c < 3 else -v * x[c]
                                 for c, v in r.items() if c in h or c in x), GR(0))
                    assert not total

    def test_consistency_is_tested_on_the_whole_datum(self):
        # after reduction row 1 lies in the data columns 1 and 2 as d1 - d2
        rows = [{0: ONE, 2: ONE}, {1: ONE, 2: GR(-1)}]
        factor = RowFactor(to_int_rows(rows), 1)
        assert factor.rank == 1
        assert factor.solve({1: ONE}) is None
        assert factor.solve({2: ONE}) is None
        assert factor.solve({1: ONE, 2: ONE}) == {0: ONE}


def gauss_ints(bound):
    return st.tuples(st.integers(-bound, bound), st.integers(-bound, bound))


@st.composite
def dense_rows(draw, ncols=8):
    """Up to 8 Gaussian-integer rows of ``ncols`` columns with at least half
    their entries nonzero and parts up to 30, some of them repeats or small
    Gaussian multiples of others: rows that meet at one lead column force
    pivot choices and long back substitutions, as random flags do."""
    nonzero = gauss_ints(30).filter(any)
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        zeros = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols // 2))
        rows.append({c: draw(nonzero) for c in range(ncols) if c not in zeros})
    for _ in range(draw(st.integers(0, 8 - len(rows)))):
        row, (u, v) = draw(st.sampled_from(rows)), draw(gauss_ints(2).filter(any))
        rows.append({c: (u * a - v * b, u * b + v * a) for c, (a, b) in row.items()})
    return draw(st.permutations(rows))


def qqi_matrix(int_rows, ncols):
    dense = [[QQ_I(*row.get(c, (0, 0))) for c in range(ncols)] for row in int_rows]
    return DomainMatrix(dense, (len(int_rows), ncols), QQ_I)


class TestDenseOracle:
    """Dense rows against sympy's reduced echelon form over QQ(i)."""

    @settings(max_examples=60, deadline=None)
    @given(dense_rows())
    def test_pivot_columns(self, rows):
        assert int_pivot_cols(rows) == list(qqi_matrix(rows, 8).rref()[1])

    @settings(max_examples=60, deadline=None)
    @given(dense_rows())
    def test_kernel(self, rows):
        basis = int_kernel_rows(rows, 8)
        reduced, pivots = qqi_matrix(rows, 8).nullspace().rref()  # rank <= 6 < 8
        assert basis.pivots == list(pivots)
        assert [[v.get(c, GR(0)) for c in range(8)] for v in basis.vectors] == [
            [from_qqi(z) for z in row] for row in reduced.to_list()[: len(pivots)]
        ]

    @settings(max_examples=60, deadline=None)
    @given(dense_rows(), st.integers(1, 7), st.data())
    def test_row_factor(self, rows, limit, data):
        x = data.draw(st.dictionaries(st.integers(limit, 7), small_scalars()).map(
            lambda x: {c: v for c, v in x.items() if v}))
        factor = RowFactor(rows, limit)
        m = qqi_matrix(rows, 8)
        system, tail = m[:, :limit], m[:, limit:]
        column = [[to_qqi(x.get(c, GR(0)))] for c in range(limit, 8)]
        rhs = tail * DomainMatrix(column, (8 - limit, 1), QQ_I)
        reduced, pivots = system.hstack(rhs).rref()
        assert factor.rank == system.rank()
        if limit in pivots:
            assert factor.solve(x) is None
        else:
            solution = {p: from_qqi(reduced[i, limit].element) for i, p in enumerate(pivots)}
            assert factor.solve(x) == {p: v for p, v in solution.items() if v}


class TestHeldPivots:
    @settings(max_examples=60, deadline=None)
    @given(dense_rows(), st.data())
    def test_rows_add_the_rank_past_the_held_echelon(self, rows, data):
        """Rows reduced against held pivots P of H return exactly the rank
        they add to H, at leads outside P, and change neither P nor the rows."""
        cut = data.draw(st.integers(0, len(rows)))
        h, r = rows[:cut], rows[cut:]
        held = _echelon(h)[0]
        before = ({c: dict(row) for c, row in held.items()}, [dict(row) for row in rows])
        pivots = _echelon(r, held=held)[0]
        assert len(pivots) == len(int_pivot_cols(h + r)) - len(held)
        assert not set(pivots) & set(held)
        assert (held, rows) == before


def test_kernel_rows_support_validation():
    with pytest.raises(ValueError):
        kernel_rows([{5: ONE}], 3)
