"""Generic tableau machinery: prolongation, Cartan characters, Cartan's test,
ordering search and the torsion target space.

A tableau is a subspace A of V* (x) W, stored over coordinates with the
V*-index major and the W-index minor. Its first prolongation is the set of
symmetric 2-tensors whose contractions against every covector slot stay in A;
computationally that is the kernel of one sparse constraint matrix whose rows
are indexed by (unordered covector pair, W-coordinate).

``prolongation_dim`` takes a smaller rank: for the tableau A^(q) q levels
below its root A, A^(q+1) is the kernel of the equations of A (its
annihilator) on every (q+1)-fold contraction of S^{q+2}V* (x) W (Seiler,
*Involution*, ch. 6). The equations, and each dim A^(q+1), are computed once
per root tableau. ``prolong`` solves nothing: a lifted tableau's dimension is
that memo; its basis, the kernel above, is built on first read and checked.

``tensors`` takes the canonical basis of A^(q) as the kernel of the same
equations, one column per (multiset of q+1 covector indices, W-index), so a
basis row is the symmetric tensor's entries at sorted index tuples.

The multiset combinatorics is built once per (n, q) and shared read-only:
``_contractions`` holds the number of ``multisets`` columns and, for each
q-multiset m, the column of m + {i} for every covector index i.
``_symmetric_rows`` reads it for ``prolongation_dim``, ``filtration_dims``
and ``tensors``; the ranks are taken afresh each call.

The Cartan filtration A_k intersects A with the span of the trailing vectors
u^{k+1..n} of an ordered basis of V*. For symmetric tensors the filtration of
a prolongation is the prolongation of the filtration, (A^(q))_k = (A_k)^(q),
so every filtration dimension is read off the root's equations. Rewritten in
the u coordinates by the flag's own Gaussian-integer rows, they cut out A^(q)
in S^{q+1}V* (x) W with the columns sorted by descending least covector index.
The multisets inside the trailing covectors are then a column prefix, and
every equation outside it is zero on it, so dim A^(q)_k is the prefix width
minus the pivot columns (the column rank profile, from one forward
elimination) that fall in the prefix. Characters are the filtration
increments and the test compares dim A^(1) with s_1 + 2 s_2 + ... + n s_n.
An :class:`OrderedBasis` is checked invertible once, when built.

The greedy ordering search is a lazy scan: a candidate's W-block is reduced
by ``linalg._echelon`` against the state held fixed only while its gain bound,
w at first with nothing reduced (a) and capped at the room left (b), can win,
and once per line modulo the chosen span U (c), as (λc + u) (x) W lies in
c (x) W + U (x) W. The flag is the one a full search gives.

Everything here runs on Gaussian-integer pair rows: a tableau basis is a
:class:`SubspaceBasis`, whose integer rows (the canonical basis times one
denominator) feed the constraint matrix of the prolongation, the equations
behind the prolongation dimension and the filtration, the ordering search and
the symmetric tensors of a prolongation. Uniform scaling keeps every
kernel and rank, so no step needs the GaussRational view of a basis.
"""

import random as _random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import combinations_with_replacement
from math import comb

from .linalg import (
    ONE,
    InvariantViolation,
    SubspaceBasis,
    _echelon,
    _normalise,
    _rref,
    int_kernel_rows,
    int_pivot_cols,
    kernel_rows,  # noqa: F401 -- bench/test_checks.py traces tableau.kernel_rows
)


class Tableau:
    """Subspace of V* (x) W with dim_V * dim_W ambient coordinates.

    ``system`` and ``level`` name it in failure messages: a system builder
    sets the first, as "e(3,2)", and a prolongation raises the level by one.
    ``source`` is the tableau this one is the first prolongation of, or None
    for a tableau built directly; ``root`` is the end of that chain. A lifted
    tableau's dim is read off the root's equations, its basis built on first read.
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
        self._prolongation_dims = {}  # on a root: dim A^(q+1) by q, see prolongation_dim

    @property
    def root(self) -> "Tableau":
        t = self
        while t.source is not None:
            t = t.source
        return t

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def equations(self) -> list:
        """Gaussian-integer rows spanning the annihilator of the tableau, the
        kernel of its basis rows."""
        return int_kernel_rows(self.basis.rows, self.dim_V * self.dim_W).rows

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
    """Ordered basis u^1..u^n of V*, ``rows[i]`` = u^i in old coordinates as
    a Gaussian-integer pair row of nonzero entries; one column rank profile
    makes every OrderedBasis invertible. Scaling one u^i keeps every span
    u^{k+1..n}, so rational rows may each be scaled to integers."""

    def __init__(self, rows: list, label: str = "given"):
        n = len(rows)
        for row in rows:
            for c, v in row.items():
                if not 0 <= c < n:
                    raise ValueError("change of basis must be square")
                if v == (0, 0):
                    raise ValueError(f"ordering '{label}' stores a zero entry at column {c}")
        if len(int_pivot_cols(rows)) != n:
            raise ValueError(f"ordering '{label}' is singular")
        self.rows = rows
        self.label = label

    @classmethod
    def identity(cls, dim_V: int, label: str = "given") -> "OrderedBasis":
        return cls([{i: (1, 0)} for i in range(dim_V)], label)

    @classmethod
    def permutation(cls, order, label: str) -> "OrderedBasis":
        return cls([{j: (1, 0)} for j in order], label)


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
    for the next round of the test; its ``source`` is the prolonged tableau.
    Its dimension is ``prolongation_dim(source)``, from the root's equations;
    its basis, the kernel of ``_prolongation_rows(source)``, is built when
    first read and cross-checked against that dimension.
    """

    def __init__(self, source: Tableau):
        self.lifted = _Lifted(source)


class _Lifted(Tableau):
    """The ``lifted`` tableau of a :class:`Prolongation`."""

    def __init__(self, source: Tableau):
        self.dim_V, self.dim_W = source.dim_V, source.dim
        self.system, self.level, self.source = source.system, source.level + 1, source

    @property
    def dim(self) -> int:
        return prolongation_dim(self.source)

    @cached_property
    def basis(self) -> SubspaceBasis:
        s = self.source
        basis = int_kernel_rows(_prolongation_rows(s), s.dim_V * s.dim)
        if basis.dim != self.dim:
            raise InvariantViolation(f"{self.system} level {self.level}: V* (x) A kernel "
                                     f"dimension {basis.dim} != {self.dim} from the equations")
        return basis


def multisets(n: int, d: int) -> list:
    """The d-element multisets of covector indices 0..n-1, as sorted tuples in
    column order: by descending least index, so those inside the trailing
    indices k..n-1 come first, comb(n-k+d-1, d) of them."""
    return sorted(combinations_with_replacement(range(n), d), key=lambda m: -m[0])


def tensors(t: Tableau, q: int) -> list:
    """Canonical basis rows of A^(q), A = ``t``, as symmetric tensors: the
    kernel of the equations of A on S^{q+1}V* (x) W, with column c * dim W + w
    the entry at the c-th of ``multisets(dim V, q + 1)`` and W-index w."""
    rows, ncols = _symmetric_rows(t.equations, t.dim_V, t.dim_W, q)
    return int_kernel_rows(rows, ncols).rows


def prolong(t: Tableau) -> Prolongation:
    """First prolongation of a tableau: its dimension comes from the root's
    equations, its basis is built and cross-checked when first read."""
    return Prolongation(t)


@cache
def _contractions(n: int, q: int):
    """(count, bases): count is the number of (q+1)-multisets of covector
    indices 0..n-1, and bases holds, for each q-multiset m in
    ``combinations_with_replacement`` order, the ``multisets`` column of
    m + {i} for i = 0..n-1. Built once per (n, q) and shared read-only."""
    pos = {m: c for c, m in enumerate(multisets(n, q + 1))}
    return len(pos), tuple(tuple(pos[tuple(sorted(m + (i,)))] for i in range(n))
                           for m in combinations_with_replacement(range(n), q))


def _symmetric_rows(equations, n: int, w: int, q: int):
    """(rows, ncols): the equations of A^(q) on S^{q+1}V* (x) W, one row per
    multiset m of q covector indices and equation e of A, with e[i, w] at
    column (m + {i}, w), columns ordered by ``multisets``; each multiset
    spans w columns. The columns of m + {i} come from ``_contractions``."""
    count, bases = _contractions(n, q)
    split = [[(*divmod(coord, w), v) for coord, v in e.items()] for e in equations]
    rows = []
    for base in bases:
        base = [c * w for c in base]
        rows += [{base[i] + ww: v for i, ww, v in e} for e in split]
    return rows, count * w


def prolongation_dim(t: Tableau) -> int:
    """dim A^(q+1) for t = A^(q), q levels below its root A: the corank of the
    equations of A on S^{q+2}V* (x) W. It depends on no flag, so the root
    keeps it by q and every tableau of its chain reads the same memo."""
    root = t.root
    q = t.level - root.level
    if q not in root._prolongation_dims:
        rows, ncols = _symmetric_rows(root.equations, root.dim_V, root.dim_W, q + 1)
        root._prolongation_dims[q] = ncols - len(int_pivot_cols(rows))
    return root._prolongation_dims[q]


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


def filtration_dims(t: Tableau, ob: OrderedBasis) -> list:
    """dim A_k for k = 1..dim_V, where A_k keeps only the trailing covectors.

    For t = A^(q), q levels below its root A, each equation e of A is
    rewritten in the ordered-basis coordinates as e'[i, w] = sum_j C[i, j]
    e[j, w], with C the flag's rows and no inverse formed. On S^{q+1}V* (x) W
    the rewritten equations cut out A^(q), and A^(q)_k is their kernel on the
    column prefix of multisets inside u^{k+1..n}: dim A^(q)_k is the prefix
    width minus the pivot columns in the prefix. The whole corank must be
    dim A^(q).
    """
    n = t.dim_V
    if len(ob.rows) != n:
        raise ValueError("ordering size must match dim V*")
    columns = [{} for _ in range(n)]  # columns[j][i] = C[i, j]
    for i, row in enumerate(ob.rows):
        for j, v in row.items():
            columns[j][i] = v
    root = t.root
    w, q = root.dim_W, t.level - root.level
    transformed = []
    for e in root.equations:
        x = {}
        for coord, (a, b) in e.items():
            j, ww = divmod(coord, w)
            for i, (ca, cb) in columns[j].items():
                key = i * w + ww
                re, im = ca * a - cb * b, ca * b + cb * a
                cur = x.get(key)
                if cur is not None:
                    re, im = re + cur[0], im + cur[1]
                    if not (re or im):
                        del x[key]
                        continue
                x[key] = (re, im)
        transformed.append(x)
    rows, ncols = _symmetric_rows(transformed, n, w, q)
    pivots = int_pivot_cols(rows)
    if ncols - len(pivots) != t.dim:
        raise InvariantViolation(f"{_where(t, ob)}: corank of the equations "
                                 f"{ncols - len(pivots)} != {t.dim} = dim A")
    widths = [comb(n - k + q, q + 1) * w for k in range(1, n + 1)]
    return [width - bisect_left(pivots, width) for width in widths]


def _where(t: Tableau, ob: OrderedBasis) -> str:
    return f"{t.system} level {t.level}, ordering '{ob.label}'"


def cartan_test(t: Tableau, ob: OrderedBasis = None) -> CartanReport:
    """Run Cartan's test for the tableau under the given ordering.

    dim A^(1) comes from ``prolongation_dim``. The test inequality is
    asserted, never assumed.
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
    dim_p = prolongation_dim(t)
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


def _greedy_ordering(t: Tableau) -> OrderedBasis:
    """Build the ordered basis backwards along the trailing flag.

    Candidates are the coordinate covectors plus all pairwise sums and
    differences. Each step picks the candidate whose W-block adds the most
    rank to the state (the tableau plus the blocks chosen so far), which
    minimises the next trailing filtration dimension; ties go to the earliest
    candidate, so the ordering is reproducible.

    The scan is Minoux's lazy greedy: a gain never grows with the state (rank
    is submodular), so a candidate whose bound is at most the step's best is
    skipped; one that is not is reduced by ``_echelon`` against the state held
    fixed, and its new pivot rows, their number the gain, are kept.
    (a) A candidate starts at bound w, the rank of c (x) W (its leads
    min(c)·w + ww are distinct); its raw rows are built when first reduced.
    (b) Bounds are capped at the room n·w − dim state; a gain equal to the
    room ends the step, so at room 0 the first covector outside the chosen
    span U is taken unreduced. (c) Candidates whose lines agree modulo U share
    one gain per step, keyed by c reduced by the ``_rref`` of U with lead 1:
    (λc + u) (x) W lies in c (x) W + U (x) W, and U (x) W in the state. Only
    a class's first candidate is reduced and later ones tie at best, so the
    winner holds fresh rows. A candidate in U is dropped. Ranks do not depend
    on row scaling, so every count is exact over Q(i); the chosen covectors
    span V*, so dim A + gains = dim V * dim W.
    """
    n, w = t.dim_V, t.dim_W
    covectors = [{i: (1, 0)} for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            covectors.append({i: (1, 0), j: (1, 0)})
            covectors.append({i: (1, 0), j: (-1, 0)})
    state = dict(zip(t.basis.pivots, t.basis.rows))
    candidates = [[w, c, None] for c in covectors]  # bound, covector, rows kept
    chosen_back = []
    for _ in range(n):
        room = n * w - len(state)
        u_rows, _, cols, _ = _rref(chosen_back)
        # U's pivot columns first: a covector reduced past them by U's rows is c mod U
        order = {col: k for k, col in enumerate(cols + [c for c in range(n) if c not in cols])}
        u_held = {order[p]: {order[c]: v for c, v in r.items()} for p, r in zip(cols, u_rows)}
        gains, best, best_gain = {}, None, -1
        for k, cand in enumerate(candidates):
            if min(cand[0], room) <= best_gain:
                continue
            line = _echelon([{order[c]: v for c, v in cand[1].items()}], held=u_held)[0]
            line = next(iter(line.values()), None)
            if line is None:
                cand[1] = None  # in the chosen span for good
                continue
            key = frozenset(_normalise(line, min(line))[0].items())
            if key not in gains:
                rows = cand[2] if cand[2] is not None else {
                    ww: {s * w + ww: v for s, v in cand[1].items()} for ww in range(w)}
                cand[2] = _echelon(rows.values(), held=state)[0] if room else {}
                gains[key] = len(cand[2])
            cand[0] = gains[key]
            if cand[0] > best_gain:
                best, best_gain = k, cand[0]
                if best_gain == room:
                    break
        state.update(candidates[best][2])
        chosen_back.append(candidates[best][1])
        candidates = [c for k, c in enumerate(candidates) if c[1] is not None and k != best]
    if len(state) != n * w:
        raise InvariantViolation(f"{t.system} level {t.level}, ordering 'greedy': "
                                 f"dim A + gains = {len(state)} != {n * w} = dim V * dim W")
    return OrderedBasis(chosen_back[::-1], "greedy")


def search_ordering(t: Tableau, strategy: str, seed: int = None) -> OrderedBasis:
    """Produce an ordered basis of V* for the Cartan filtration.

    ``greedy``: deterministic search over coordinate covectors and their
    pairwise combinations, maximising each successive character. ``random``:
    reproducible invertible matrix with small integer entries drawn from the
    seeded generator, the one strategy that takes a seed. The identity
    ordering is ``OrderedBasis.identity``, ``cartan_test``'s default.
    """
    if strategy == "greedy":
        if seed is not None:
            raise ValueError(f"ordering strategy 'greedy' takes no seed, got {seed!r}")
        return _greedy_ordering(t)
    if strategy == "random":
        if seed is None:
            raise ValueError("random ordering needs a seed")
        rng = _random.Random(seed)
        n = t.dim_V
        while True:
            draw = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            rows = [{c: (v, 0) for c, v in enumerate(row) if v} for row in draw]
            try:
                return OrderedBasis(rows, f"random:{seed}")
            except ValueError:  # singular: the constructor's check is its one elimination
                continue
    raise ValueError(f"unknown ordering strategy {strategy!r}")
