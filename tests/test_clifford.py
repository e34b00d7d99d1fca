import pytest
import sympy

from kdirac.clifford import CliffordRep, build_spinor_rep
from kdirac.linalg import GaussRational, InvariantViolation

GR = GaussRational
ALLOWED = {GR(1), GR(-1), GR(0, 1), GR(0, -1)}


def to_sympy(m):
    """The sympy matrix of an ExactMatrix, read off its entries."""
    out = sympy.zeros(m.rows, m.cols)
    for (r, c), v in m.entries.items():
        out[r, c] = sympy.Rational(v.re.numerator, v.re.denominator) + sympy.I * sympy.Rational(
            v.im.numerator, v.im.denominator)
    return out


@pytest.mark.parametrize("n", range(3, 9))
def test_defining_relation_and_dimension(n):
    rep = build_spinor_rep(n)
    assert rep.s == 2 ** (n // 2)
    assert len(rep.gamma) == n
    s = rep.s
    gamma = [to_sympy(g) for g in rep.gamma]
    for a in range(n):
        for b in range(a, n):
            anti = gamma[a] * gamma[b] + gamma[b] * gamma[a]
            assert anti == (-2 * sympy.eye(s) if a == b else sympy.zeros(s, s))


def test_entries_signed_permutation():
    for n in (3, 4, 6):
        rep = build_spinor_rep(n)
        for g in rep.gamma:
            assert set(g.entries.values()) <= ALLOWED
            rows_seen = [r for (r, _) in g.entries]
            cols_seen = [c for (_, c) in g.entries]
            assert sorted(rows_seen) == list(range(rep.s))
            assert sorted(cols_seen) == list(range(rep.s))


def test_chirality_split_even():
    for n in (4, 6, 8):
        rep = build_spinor_rep(n)
        assert rep.chirality is not None
        plus, minus = rep.chirality_eigenspace_dims()
        assert plus == minus == rep.s // 2
        chi = to_sympy(rep.chirality)
        assert chi * chi == sympy.eye(rep.s)
        for g in map(to_sympy, rep.gamma):
            assert chi * g + g * chi == sympy.zeros(rep.s, rep.s)


def test_no_chirality_for_odd():
    rep = build_spinor_rep(5)
    assert rep.chirality is None
    with pytest.raises(ValueError):
        rep.chirality_eigenspace_dims()


def test_parameter_bounds():
    """The representation knows only n; the systems check the slot count
    k >= 2 (``test_parameter_bounds`` in the Euclidean and parabolic tests)."""
    with pytest.raises(ValueError, match="n must be at least 3"):
        build_spinor_rep(2)


def test_construction_deterministic():
    a = build_spinor_rep(6)
    b = build_spinor_rep(6)
    assert [g.entries for g in a.gamma] == [g.entries for g in b.gamma]
    assert a.chirality.entries == b.chirality.entries


def test_verify_names_n_and_the_generators_of_a_corrupted_matrix():
    rep = build_spinor_rep(4)
    gamma = list(rep.gamma)
    gamma[2] = gamma[1]  # then g_2 g_3 + g_3 g_2 = -2 I instead of 0
    with pytest.raises(InvariantViolation, match=r"n = 4: .* a = 2, b = 3"):
        CliffordRep(4, gamma, rep.chirality).verify()
