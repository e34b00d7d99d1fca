from fractions import Fraction

import pytest

from kdirac.clifford import build_spinor_rep
from kdirac.euclidean import build_euclidean, cubic_dim_formula
from kdirac.weyl import (
    RootSystem,
    half_spin_dim,
    module_table,
    so_factor_dim,
    weyl_dim,
)

HALF = Fraction(1, 2)


class TestRootSystems:
    def test_positive_root_counts(self):
        assert len(RootSystem.make("A", 2).positive_roots) == 3
        assert len(RootSystem.make("B", 3).positive_roots) == 9
        assert len(RootSystem.make("D", 4).positive_roots) == 12

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_rho_type_d(self, m):
        rs = RootSystem.make("D", m)
        assert rs.rho == tuple(Fraction(m - 1 - i) for i in range(m))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rho_type_b(self, m):
        rs = RootSystem.make("B", m)
        assert rs.rho == tuple(Fraction(2 * (m - i) - 1, 2) for i in range(m))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            RootSystem.make("E", 6)


class TestWeylDim:
    def test_trivial_weight(self):
        for rs in (RootSystem.make("A", 2), RootSystem.make("B", 2), RootSystem.make("D", 3)):
            zero = (0,) * len(rs.rho)
            assert weyl_dim(rs, zero) == 1

    def test_sl2_symmetric_powers(self):
        a1 = RootSystem.make("A", 1)
        for d in range(6):
            assert weyl_dim(a1, (d, 0)) == d + 1

    def test_non_dominant_rejected(self):
        # (1/2, -1/2) is the minus half-spin weight of D_2 but pairs to -1/2
        # with the short root e2 of B_2; (1, 1, -2) pairs to -1 with e2 + e3
        for family, rank, lam in [("A", 1, (0, 1)), ("B", 2, (HALF, -HALF)),
                                  ("D", 3, (1, 1, -2))]:
            with pytest.raises(ValueError, match="not dominant"):
                weyl_dim(RootSystem.make(family, rank), lam)
        assert weyl_dim(RootSystem.make("D", 2), (HALF, -HALF)) == 2

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_cubic_weight_type_d(self, m):
        rs = RootSystem.make("D", m)
        lam = (Fraction(7, 2),) + (HALF,) * (m - 1)
        assert weyl_dim(rs, lam) == 2 ** (m - 2) * (2 * m + 1) * 2 * m * (2 * m - 1) // 3

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_mixed_weight_type_d(self, m):
        rs = RootSystem.make("D", m)
        lam = (Fraction(5, 2), Fraction(3, 2)) + (HALF,) * (m - 2)
        assert weyl_dim(rs, lam) == (2 * m + 1) * (2 * m - 1) * (2 * m - 3) * 2 ** (m - 1) // 3

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_cubic_weight_type_b(self, m):
        rs = RootSystem.make("B", m)
        lam = (Fraction(7, 2),) + (HALF,) * (m - 1)
        assert weyl_dim(rs, lam) == 2**m * (2 * m + 2) * (2 * m + 1) * 2 * m // 6

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_mixed_weight_type_b(self, m):
        rs = RootSystem.make("B", m)
        lam = (Fraction(5, 2), Fraction(3, 2)) + (HALF,) * (m - 2)
        assert weyl_dim(rs, lam) == (m + 1) * m * (m - 1) * 2 ** (m + 3) // 3


class TestCrossChecks:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_half_spin_matches_chirality_split(self, n):
        rep = build_spinor_rep(n)
        plus, minus = rep.chirality_eigenspace_dims()
        assert half_spin_dim(n) == plus == minus

    def test_module_table_small(self):
        assert module_table(3)[0][1] == 32
        rows4 = dict(module_table(4))
        assert rows4["S3E x (S3oF cp Sp)"] == 160
        assert rows4["(E cp L2E) x (C2 S4C2 + S4C2 C2)"] == 40

    def test_module_table_n5(self):
        rows = dict(module_table(5))
        assert rows["S3E x (S3oF cp Sp)"] == 320
        assert rows["(E cp L2E) x (L2F cp F cp Sp)"] == 128

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_table_total_matches_closed_form(self, n):
        s = 1 << (n // 2)
        assert sum(d for _, d in module_table(n)) == cubic_dim_formula(n, s)

    @pytest.mark.parametrize("n", [3, 4])
    def test_table_total_matches_computed_cubics(self, n):
        sys = build_euclidean(n, 2)
        assert sum(d for _, d in module_table(n)) == sys.monogenic_dim(3)

    def test_so_factor_requires_valid_n(self):
        with pytest.raises(ValueError):
            module_table(2)
