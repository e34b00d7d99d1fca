"""Generic tableau machinery: prolongation, Cartan characters, Cartan's test,
ordering search and the torsion target space.

A tableau is a subspace A of V* (x) W, stored over coordinates with the
V*-index major and the W-index minor. Its first prolongation is the set of
symmetric 2-tensors whose contractions against every covector slot stay in A;
computationally that is the kernel of one sparse constraint matrix whose rows
are indexed by (unordered covector pair, W-coordinate).

``prolong`` builds that kernel. ``prolongation_dim`` takes a smaller rank: for
the tableau A^(q) q levels below its root A, A^(q+1) is the kernel of the
equations of A (its annihilator) on every (q+1)-fold contraction of
S^{q+2}V* (x) W (Seiler, *Involution*, ch. 6).

``tensors`` expands a tableau down its ``source`` chain, substituting each
level's basis, into symmetric tensors over the root's V* and W.

The Cartan filtration A_k intersects A with the span of the trailing vectors
of an ordered basis of V*. After one change of coordinates, dim A_k is dim A
minus the rank of the leading k * dim W columns, so every filtration dimension
is read off the column rank profile (the pivot columns) that forward
elimination of the transformed basis gives. Characters are the filtration
increments and the test compares dim A^(1) with s_1 + 2 s_2 + ... + n s_n.

Everything here runs on Gaussian-integer pair rows: a tableau basis is a
:class:`SubspaceBasis`, whose integer rows (the canonical basis times one
denominator) feed the constraint matrix of the prolongation, the transformed
bases of the filtration, the ordering search and the expansion of a
prolongation into tensors. Uniform scaling keeps every kernel and rank, so
no step needs the GaussRational view of a basis.
"""

import random as _random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

from .linalg import (
    ONE,
    ExactMatrix,
    GaussRational,
    InvariantViolation,
    SubspaceBasis,
    _axpy,
    _ints,
    int_kernel_rows,
    int_pivot_cols,
    kernel_rows,  # noqa: F401 -- bench/test_checks.py traces tableau.kernel_rows
)


class Tableau:
    """Subspace of V* (x) W with dim_V * dim_W ambient coordinates.

    ``system`` and ``level`` name it in failure messages: a system builder
    sets the first, as "e(3,2)", and a prolongation raises the level by one.
    ``source`` is the tableau this one is the first prolongation of, or None
    for a tableau built directly; ``root`` is the end of that chain.
    """

    system = "tableau"
    level = 0
    source = None

    def __init__(self, dim_V: int, dim_W: int, basis: SubspaceBasis):
        if basis.ambient_dim != dim_V * dim_W:
            raise ValueError("basis ambient dimension must be dim_V * dim_W")
        self.dim_V = dim_V
        self.dim_W = dim_W
        self.basis = basis

    @property
    def root(self) -> "Tableau":
        t = self
        while t.source is not None:
            t = t.source
        return t

    @property
    def dim(self) -> int:
        return self.basis.dim

    @classmethod
    def full(cls, dim_V: int, dim_W: int) -> "Tableau":
        vecs = [{c: ONE} for c in range(dim_V * dim_W)]
        return cls(dim_V, dim_W, SubspaceBasis.from_vectors(dim_V * dim_W, vecs))

    @classmethod
    def zero(cls, dim_V: int, dim_W: int) -> "Tableau":
        return cls(dim_V, dim_W, SubspaceBasis.from_vectors(dim_V * dim_W, []))

    def __repr__(self):
        return f"Tableau(dim {self.dim} in V*{self.dim_V} (x) W{self.dim_W})"


class OrderedBasis:
    """Ordered basis u^1..u^n of V*, rows of ``change`` in old coordinates."""

    def __init__(self, change: ExactMatrix, label: str = "given"):
        if change.rows != change.cols:
            raise ValueError("change of basis must be square")
        self.change = change
        self.label = label
        self._inverse = None

    @classmethod
    def identity(cls, dim_V: int, label: str = "given") -> "OrderedBasis":
        return cls(ExactMatrix.identity(dim_V), label)

    @classmethod
    def from_rows(cls, rows, label: str) -> "OrderedBasis":
        return cls(ExactMatrix.from_rows(rows), label)

    @classmethod
    def permutation(cls, order, label: str) -> "OrderedBasis":
        n = len(order)
        if sorted(order) != list(range(n)):
            raise ValueError("not a permutation")
        return cls(ExactMatrix(n, n, {(i, j): ONE for i, j in enumerate(order)}), label)

    def inverse_rows(self):
        """(rows, den) with rows[j] / den row j of C^-1, C = ``change``. The
        kernel of [I | -C] is {(C y, y)}: for invertible C its canonical vector
        with pivot i is (e_i, C^-1 e_i), over one denominator; a singular C
        puts a pivot past column n - 1."""
        if self._inverse is None:
            n = self.change.rows
            rows, d = _ints(self.change.row_dicts())
            system = [{r: (d, 0), **{n + j: (-a, -b) for j, (a, b) in row.items()}}
                      for r, row in enumerate(rows)]
            kernel = int_kernel_rows(system, 2 * n)
            if kernel.pivots != list(range(n)):
                raise ValueError(f"ordering '{self.label}' is singular")
            inv = [{} for _ in range(n)]
            for i, vec in enumerate(kernel.rows):
                for c, v in vec.items():
                    if c >= n:
                        inv[c - n][i] = v
            self._inverse = inv, kernel.den
        return self._inverse


@dataclass(frozen=True)
class CartanReport:
    dim_tableau: int
    filtration_dims: tuple
    characters: tuple
    rhs_cartan_test: int
    dim_prolongation: int
    involutive: bool
    ordering_label: str


# ---------------------------------------------------------------------------
# prolongation
# ---------------------------------------------------------------------------


def _prolongation_rows(t: Tableau):
    """Gaussian-integer constraint rows for coefficients c[(slot, basis index)]
    of elements of V* (x) A: row (i<j, w) demands the (i,j,w) and (j,i,w)
    tensor entries agree. Columns are slot-major: col = i * dim(A) + p.

    Each entry is plus or minus an entry of the integer basis rows, the basis
    scaled by one common denominator, which scales every column alike and so
    keeps the kernel."""
    a = t.dim
    rows = {}
    for p, vec in enumerate(t.basis.rows):
        for coord, (re, im) in vec.items():
            j, w = divmod(coord, t.dim_W)
            for i in range(j):
                rows.setdefault((i, j, w), {})[i * a + p] = (re, im)
            for l in range(j + 1, t.dim_V):
                rows.setdefault((j, l, w), {})[l * a + p] = (-re, -im)
    return list(rows.values())


class Prolongation:
    """Result of prolonging a tableau.

    ``lifted`` presents the prolongation as a tableau inside V* (x) A, ready
    for the next round of the test; ``tensors(lifted)`` expands it into
    symmetric tensors.
    """

    def __init__(self, source: Tableau, coefficients: SubspaceBasis):
        self.source = source
        self.lifted = Tableau(source.dim_V, source.dim, coefficients)
        self.lifted.system, self.lifted.level = source.system, source.level + 1
        self.lifted.source = source

    @property
    def dim(self) -> int:
        return self.lifted.dim


def tensors(t: Tableau) -> list:
    """The basis rows of ``t``, q levels below its root, as Gaussian-integer
    rows over (V*)^(x)(q+1) (x) W of the root, slot-major.

    Each step substitutes the source's basis rows for the columns
    i * dim(source) + p, giving coordinates i * N + c with N the source's
    ambient dimension. The rows are not canonicalised: the expansion is
    injective, so they stay independent."""
    rows = t.basis.rows
    while t.source is not None:
        t = t.source
        a, ambient, basis = t.dim, t.basis.ambient_dim, t.basis.rows
        expanded = []
        for c in rows:
            x = {}
            for col, (la, lb) in c.items():
                i, p = divmod(col, a)
                offset = i * ambient
                for coord, (va, vb) in basis[p].items():
                    key = offset + coord
                    re, im = la * va - lb * vb, la * vb + lb * va
                    cur = x.get(key)
                    if cur is not None:
                        re, im = re + cur[0], im + cur[1]
                        if not (re or im):
                            del x[key]
                            continue
                    x[key] = (re, im)
            expanded.append(x)
        rows = expanded
    return rows


def prolong(t: Tableau) -> Prolongation:
    """First prolongation of a tableau (canonical coefficient basis)."""
    coeffs = int_kernel_rows(_prolongation_rows(t), t.dim_V * t.dim)
    return Prolongation(t, coeffs)


def prolongation_dim(t: Tableau) -> int:
    """dim A^(q+1) for t = A^(q), q levels below its root A: the corank of the
    equations of A on S^{q+2}V* (x) W, one row per multiset m of q+1 covector
    indices and equation e, with e[i, w] at column (m + {i}, w)."""
    root, q = t.root, t.level - t.root.level
    n, w = root.dim_V, root.dim_W
    equations = int_kernel_rows(root.basis.rows, n * w).rows
    cols = {m: c * w for c, m in enumerate(combinations_with_replacement(range(n), q + 2))}
    rows = []
    for m in combinations_with_replacement(range(n), q + 1):
        for e in equations:
            row = {}
            for coord, v in e.items():
                i, ww = divmod(coord, w)
                row[cols[tuple(sorted(m + (i,)))] + ww] = v
            rows.append(row)
    return len(cols) * w - len(int_pivot_cols(rows))


def h02_dim(t: Tableau) -> int:
    """Dimension of Lambda^2 V* (x) W modulo the skew image of V* (x) A.

    The skew-symmetrisation of V* (x) A has kernel A^(1), so its rank is
    dim V * dim A - dim A^(1), with dim A^(1) from ``prolongation_dim``.
    """
    n = t.dim_V
    return comb(n, 2) * t.dim_W - n * t.dim + prolongation_dim(t)


# ---------------------------------------------------------------------------
# filtration, characters, Cartan's test
# ---------------------------------------------------------------------------


def _transformed_rows(t: Tableau, ob: OrderedBasis):
    """Tableau basis re-expressed in the ordered-basis coordinates, as
    Gaussian-integer pair rows.

    The inverse change of basis is scaled by one common denominator, never row
    by row: its rows are combined into each output row (the paper level-1
    ordering has entries 1/2 in its inverse)."""
    if ob.change.rows != t.dim_V:
        raise ValueError("ordering size must match dim V*")
    inv, _den = ob.inverse_rows()
    out = []
    for vec in t.basis.rows:
        x = {}
        for coord, (a, b) in vec.items():
            j, w = divmod(coord, t.dim_W)
            for i, (qa, qb) in inv[j].items():
                key = i * t.dim_W + w
                re, im = qa * a - qb * b, qa * b + qb * a
                cur = x.get(key)
                if cur is not None:
                    re, im = re + cur[0], im + cur[1]
                    if not (re or im):
                        del x[key]
                        continue
                x[key] = (re, im)
        out.append(x)
    return out


def filtration_dims(t: Tableau, ob: OrderedBasis) -> list:
    """dim A_k for k = 1..dim_V, where A_k keeps only the trailing covectors.

    dim A_k = dim A - rank of the leading k * dim_W columns of the transformed
    basis, which is the number of its pivot columns (the column rank profile,
    from forward elimination) lying in the trailing coordinate block.
    """
    pivots = int_pivot_cols(_transformed_rows(t, ob))
    dims = [
        len(pivots) - bisect_left(pivots, k * t.dim_W) for k in range(1, t.dim_V + 1)
    ]
    if dims and dims[-1] != 0:
        raise InvariantViolation(
            f"{_where(t, ob)}: A_n must vanish, dim A_{t.dim_V} = {dims[-1]} != 0"
        )
    return dims


def _where(t: Tableau, ob: OrderedBasis) -> str:
    return f"{t.system} level {t.level}, ordering '{ob.label}'"


def cartan_test(t: Tableau, ob: OrderedBasis = None, dim_prolongation_hint=None) -> CartanReport:
    """Run Cartan's test for the tableau under the given ordering.

    ``dim_prolongation_hint`` may carry a prolongation dimension computed by
    an equivalent route (for the symbol tableaux of homogeneous systems, the
    next solution space); when absent the generic prolongation is used. The
    test inequality is asserted, never assumed.
    """
    if ob is None:
        ob = OrderedBasis.identity(t.dim_V)
    filt = filtration_dims(t, ob)
    prev = t.dim
    characters = []
    for d in filt:
        characters.append(prev - d)
        prev = d
    rhs = sum(k * s for k, s in enumerate(characters, start=1))
    dim_p = dim_prolongation_hint if dim_prolongation_hint is not None else prolongation_dim(t)
    if dim_p > rhs:
        raise InvariantViolation(
            f"{_where(t, ob)}: Cartan bound violated: dim A^(1) = {dim_p} > {rhs} = rhs"
        )
    return CartanReport(
        dim_tableau=t.dim,
        filtration_dims=tuple(filt),
        characters=tuple(characters),
        rhs_cartan_test=rhs,
        dim_prolongation=dim_p,
        involutive=(dim_p == rhs),
        ordering_label=ob.label,
    )


# ---------------------------------------------------------------------------
# ordering search
# ---------------------------------------------------------------------------


def _reduce_lead(vec: dict, *pivot_maps):
    """Forward-reduce a Gaussian-integer row in place against rows keyed by
    their leading column. Returns the remainder's leading column, or None when
    the row reduces to zero."""
    while vec:
        lead = min(vec)
        for pm in pivot_maps:
            row = pm.get(lead)
            if row is not None:
                _axpy(vec, row, row[lead], vec[lead])
                break
        else:
            return lead
    return None


def _greedy_ordering(t: Tableau) -> OrderedBasis:
    """Build the ordered basis backwards along the trailing flag.

    Candidates are the coordinate covectors plus all pairwise sums and
    differences. Each step picks the candidate whose W-block adds the most
    new rank on top of the tableau, which minimises the next trailing
    filtration dimension; ties go to the earliest candidate. The ordering is
    fully determined by the tableau, hence reproducible.

    The search runs on Gaussian-integer pair rows: every W-block, and each
    candidate against the covectors already chosen, is forward-reduced by
    leading column with fraction-free, content-stripped updates. Ranks do
    not depend on row scaling, so every count, and with it the flag, is
    exactly what reduction over Q(i) gives.
    """
    n, w = t.dim_V, t.dim_W
    candidates = [{i: (1, 0)} for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            candidates.append({i: (1, 0), j: (1, 0)})
            candidates.append({i: (1, 0), j: (-1, 0)})
    state = dict(zip(t.basis.pivots, t.basis.rows))
    vstate = {}
    chosen_back = []
    for _ in range(n):
        best, best_count, best_rows, best_vrow = None, -1, None, None
        for cand in candidates:
            vrow = dict(cand)
            vlead = _reduce_lead(vrow, vstate)
            if vlead is None:
                continue
            added = {}
            for ww in range(w):
                block = {slot * w + ww: val for slot, val in cand.items()}
                lead = _reduce_lead(block, state, added)
                if lead is not None:
                    added[lead] = block
            if len(added) > best_count:
                best, best_count, best_rows = cand, len(added), added
                best_vrow = (vlead, vrow)
        state.update(best_rows)
        vstate[best_vrow[0]] = best_vrow[1]
        chosen_back.append(best)
    rows = []
    for cand in reversed(chosen_back):
        row = [0] * n
        for c, v in cand.items():
            row[c] = GaussRational(*v)
        rows.append(row)
    return OrderedBasis.from_rows(rows, "greedy")


def search_ordering(t: Tableau, strategy: str, seed: int = None) -> OrderedBasis:
    """Produce an ordered basis of V* for the Cartan filtration.

    ``given``: the identity ordering. ``greedy``: deterministic search over
    coordinate covectors and their pairwise combinations, maximising each
    successive character. ``random``: reproducible invertible matrix with
    small integer entries drawn from the seeded generator.
    """
    if strategy == "given":
        return OrderedBasis.identity(t.dim_V)
    if strategy == "greedy":
        return _greedy_ordering(t)
    if strategy == "random":
        if seed is None:
            raise ValueError("random ordering needs a seed")
        rng = _random.Random(seed)
        n = t.dim_V
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            int_rows = [{c: (v, 0) for c, v in enumerate(row) if v} for row in rows]
            if len(int_pivot_cols(int_rows)) == n:
                return OrderedBasis.from_rows(rows, f"random:{seed}")
    raise ValueError(f"unknown ordering strategy {strategy!r}")
