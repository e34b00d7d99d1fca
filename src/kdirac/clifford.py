"""Complex spinor representation of the Clifford algebra of Euclidean R^n.

The n generators act on a spinor space of dimension s = 2^floor(n/2) and obey
g_a g_b + g_b g_a = -2 delta_ab. They are produced by the standard recursive
tensor construction from 2x2 blocks: a Hermitian anticommuting family is built
first and multiplied by i, which makes every generator square to minus the
identity while keeping all entries in {0, +1, -1, +i, -i}. Each generator is
therefore a signed permutation matrix, which the symbol assembly downstream
relies on for sparsity. The blocks and their Kronecker products are
Gaussian-integer maps; only the returned matrices are ``ExactMatrix`` records.

For even n the construction also yields the chirality operator whose +1/-1
eigenspaces are the two half-spinor summands, each of dimension s/2. The
representation depends on n alone; the number k of slots belongs to the
system built on it.
"""

from functools import reduce

from .linalg import ExactMatrix, GaussRational, ONE, InvariantViolation, _ints

# 2x2 blocks as Gaussian-integer maps (row, col) -> (re, im)
_PAULI_X = {(0, 1): (1, 0), (1, 0): (1, 0)}
_PAULI_Y = {(0, 1): (0, -1), (1, 0): (0, 1)}
_PAULI_Z = {(0, 0): (1, 0), (1, 1): (-1, 0)}
_ID2 = {(0, 0): (1, 0), (1, 1): (1, 0)}


def _kron(a: dict, b: dict) -> dict:
    """The Kronecker product of a square Gaussian-integer map and a 2x2 one."""
    return {(ra * 2 + rb, ca * 2 + cb): (xa * ya - xb * yb, xa * yb + xb * ya)
            for (ra, ca), (xa, xb) in a.items() for (rb, cb), (ya, yb) in b.items()}


def int_anticommutator(a, b) -> dict:
    """a b + b a for square matrices given as Gaussian-integer maps
    (row, col) -> (re, im); the result keeps only its nonzero entries."""
    out = {}
    for x, y in ((a, b), (b, a)):
        y_rows = {}
        for (r, c), v in y.items():
            y_rows.setdefault(r, []).append((c, v))
        for (r, m), (xa, xb) in x.items():
            for c, (ya, yb) in y_rows.get(m, ()):
                cur = out.get((r, c), (0, 0))
                out[(r, c)] = (cur[0] + xa * ya - xb * yb, cur[1] + xa * yb + xb * ya)
    return {key: v for key, v in out.items() if v != (0, 0)}


class CliffordRep:
    """Generators of the Clifford action on the spinor space.

    ``n`` generators act on spinors of dimension ``s = 2^floor(n/2)``;
    ``gamma[alpha]`` (0-based list) is the matrix of the alpha-th generator;
    ``chirality`` is present exactly when n is even.
    """

    def __init__(self, n: int, gamma, chirality):
        self.n = n
        self.s = 1 << (n // 2)
        self.gamma = gamma
        self.chirality = chirality

    def verify(self) -> None:
        """Check the defining relation and, for even n, the chirality split;
        a failure raises InvariantViolation naming n and the generators. The
        matrices are read as Gaussian-integer maps times 1/den (den = 1 for
        entries in {0, +-1, +-i}), so every product is exact in integers and
        the relations are compared at scale den^2."""
        n, s = self.n, self.s
        mats = self.gamma + ([self.chirality] if self.chirality is not None else [])
        ints, den = _ints([m.entries for m in mats])
        gamma, sq = ints[:n], den * den

        def scalar(c):
            return {(i, i): (c * sq, 0) for i in range(s)} if c else {}

        for a in range(n):
            for b in range(a, n):
                if int_anticommutator(gamma[a], gamma[b]) != scalar(-2 if a == b else 0):
                    raise InvariantViolation(
                        f"n = {n}: Clifford relation g_a g_b + g_b g_a = -2 delta_ab"
                        f" fails for generators a = {a + 1}, b = {b + 1}")
        if self.chirality is not None:
            chi = ints[n]
            if int_anticommutator(chi, chi) != scalar(2):
                raise InvariantViolation(f"n = {n}: chirality must square to the identity")
            plus, minus = self.chirality_eigenspace_dims()
            if plus != minus:
                raise InvariantViolation(
                    f"n = {n}: half-spinor spaces of dimensions {plus} and {minus}")
            for a, g in enumerate(gamma, 1):
                if int_anticommutator(chi, g):
                    raise InvariantViolation(
                        f"n = {n}: chirality does not anticommute with generator {a}")

    def chirality_eigenspace_dims(self):
        """Dimensions of the +1 and -1 chirality eigenspaces (even n only)."""
        if self.chirality is None:
            raise ValueError("chirality exists only for even n")
        s = self.s
        plus = sum(1 for i in range(s) if self.chirality.entries.get((i, i)) == ONE)
        return plus, s - plus


def build_spinor_rep(n: int) -> CliffordRep:
    """Deterministically construct the spinor representation for R^n, n >= 3.

    All generator entries lie in {0, +-1, +-i}; the defining relation is
    verified before the representation is returned.
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    m, s = n // 2, 1 << (n // 2)
    hermitian = []
    for a in range(m):
        pre = [_PAULI_Z] * a
        post = [_ID2] * (m - a - 1)
        hermitian.append(reduce(_kron, pre + [_PAULI_X] + post))
        hermitian.append(reduce(_kron, pre + [_PAULI_Y] + post))
    if n % 2 == 1:
        hermitian.append(reduce(_kron, [_PAULI_Z] * m))
    # times i: i (re + im i) = -im + re i
    gamma = [ExactMatrix(s, s, {key: GaussRational(-im, re) for key, (re, im) in g.items()})
             for g in hermitian[:n]]
    chirality = None if n % 2 else ExactMatrix(
        s, s, {key: GaussRational(*v) for key, v in reduce(_kron, [_PAULI_Z] * m).items()})
    rep = CliffordRep(n, gamma, chirality)
    rep.verify()
    return rep
