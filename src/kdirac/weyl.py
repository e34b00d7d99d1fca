"""Root systems of types A, B and D with the dimension formula
dim V = prod <rho+lambda, alpha> / prod <rho, alpha> over the positive roots,
plus the table of irreducible constituents of the cubic solution slice that
cross-checks the linear-algebra counts.

A :class:`RootSystem` is its positive roots and rho, the half sum of them.
A highest weight is a plain tuple of coordinates (ints, or Fractions for
half-integers) paired with the roots by the standard Euclidean product; it
is dominant when that pairing is nonnegative on every positive root. Type D
is kept formal down to rank 2 (where it degenerates to two copies of type
A_1), which is exactly the case the four-dimensional special table row needs.
"""

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class RootSystem:
    positive_roots: tuple
    rho: tuple

    @classmethod
    def make(cls, family: str, rank: int) -> "RootSystem":
        if rank < 1:
            raise ValueError("rank must be positive")
        roots = []
        if family == "A":
            dim = rank + 1
            for i in range(dim):
                for j in range(i + 1, dim):
                    roots.append(_unit(dim, i, 1, j, -1))
        elif family == "B":
            dim = rank
            for i in range(dim):
                for j in range(i + 1, dim):
                    roots.append(_unit(dim, i, 1, j, -1))
                    roots.append(_unit(dim, i, 1, j, 1))
            for i in range(dim):
                roots.append(_unit(dim, i, 1))
        elif family == "D":
            if rank < 2:
                raise ValueError("type D needs rank at least 2")
            dim = rank
            for i in range(dim):
                for j in range(i + 1, dim):
                    roots.append(_unit(dim, i, 1, j, -1))
                    roots.append(_unit(dim, i, 1, j, 1))
        else:
            raise ValueError(f"unsupported family {family!r}")
        roots = tuple(roots)
        dim = len(roots[0])
        rho = tuple(
            sum((r[c] for r in roots), Fraction(0)) / 2 for c in range(dim)
        )
        return cls(roots, rho)


def _unit(dim, i, vi, j=None, vj=None):
    v = [Fraction(0)] * dim
    v[i] = Fraction(vi)
    if j is not None:
        v[j] = Fraction(vj)
    return tuple(v)


def _pair(a, b):
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def weyl_dim(rs: RootSystem, lam: tuple) -> int:
    """Exact dimension of the irreducible module with highest weight ``lam``,
    a tuple of ints or Fractions; non-dominant weights are rejected. Every
    positive root is a nonnegative sum of simple roots, so pairing
    nonnegatively with the positive roots is dominance."""
    if len(lam) != len(rs.rho):
        raise ValueError("weight length does not match the root system")
    for alpha in rs.positive_roots:
        if _pair(lam, alpha) < 0:
            raise ValueError(f"weight {lam} is not dominant")
    num = Fraction(1)
    den = Fraction(1)
    shifted = tuple(l + r for l, r in zip(lam, rs.rho))
    for alpha in rs.positive_roots:
        num *= _pair(shifted, alpha)
        den *= _pair(rs.rho, alpha)
    dim = num / den
    if dim.denominator != 1 or dim <= 0:
        raise ValueError("dimension formula did not produce a positive integer")
    return int(dim)


def _sl2_dim(d: int) -> int:
    """dim S^d of the defining representation of sl(2)."""
    return weyl_dim(RootSystem.make("A", 1), (d, 0))


def so_factor_dim(n: int, head) -> int:
    """Dimension of the so(n) constituent whose highest weight adds the given
    leading entries to the spin weight (1/2, ..., 1/2); for even n the two
    half-spin paddings are summed, giving the full spinor space."""
    m = n // 2
    half = Fraction(1, 2)
    lead = [Fraction(c) + half for c in head]
    pad = [half] * (m - len(head))
    if n % 2 == 1:
        return weyl_dim(RootSystem.make("B", m), tuple(lead + pad))
    rs = RootSystem.make("D", m)
    plus = tuple(lead + pad)
    minus = tuple(lead + pad[:-1] + [-half])
    return weyl_dim(rs, plus) + weyl_dim(rs, minus)


def module_table(n: int):
    """Constituent table of the cubic solution slice for two slots (k = 2).

    Each row is (label, dimension) with the sl(2) tensor factor included.
    The so-factors come from the dimension formula itself, so the row values
    sum to the cubic slice dimension s C(2n,3) - 2 s (n-1).
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    rows = [("S3E x (S3oF cp Sp)", _sl2_dim(3) * so_factor_dim(n, (3,)))]
    if n == 4:
        a1 = RootSystem.make("A", 1)
        special = _sl2_dim(1) * (
            weyl_dim(a1, (1, 0)) * weyl_dim(a1, (4, 0))
            + weyl_dim(a1, (4, 0)) * weyl_dim(a1, (1, 0))
        )
        rows.append(("(E cp L2E) x (C2 S4C2 + S4C2 C2)", special))
    elif n >= 5:
        rows.append(("(E cp L2E) x (L2F cp F cp Sp)", _sl2_dim(1) * so_factor_dim(n, (2, 1))))
    return rows


def half_spin_dim(n: int) -> int:
    """Dimension of one half-spin module of so(n) for even n."""
    if n % 2 != 0:
        raise ValueError("half-spin modules exist for even n only")
    m = n // 2
    half = Fraction(1, 2)
    rs = RootSystem.make("D", m)
    return weyl_dim(rs, (half,) * m)
