"""Exact linear algebra over the Gaussian rationals.

Scalars are complex numbers a + b*i with rational a and b, kept exact through
every operation, so each rank, kernel and echelon form computed here is a
statement about the input matrix rather than an approximation. Matrices and
vectors are sparse: only nonzero entries are stored.

The core has one representation, Gaussian-integer pair rows: sparse dicts
column -> ``(re, im)`` of ints. Scaling a row keeps its span, kernel and rank,
and scaling all rows by one factor keeps every relation between them, so
assemblers emit integer rows times one denominator and no fraction reaches
the elimination. That is fraction-free (cross-multiplication updates plus
content stripping) on independent column blocks, a large win on the very
sparse symbol matrices built elsewhere in this package: ``int_pivot_cols``
gives the column rank profile, ``int_kernel_rows`` the kernel, and a
:class:`RowFactor` reduces one matrix once for many data. A
:class:`SubspaceBasis` keeps its canonical reduced-row-echelon basis as
integer rows over one least denominator, so two equal subspaces always
produce bit-identical bases.

Splitting into column blocks changes no arithmetic (no update combines rows of
two blocks); it bounds peak memory, keeping one block's working copies at a time.

:class:`GaussRational` is the API edge: :class:`ExactMatrix`,
``SubspaceBasis.vectors`` and the thin conversions ``to_int_rows``,
``rref_rows``, ``rank_rows``, ``kernel_rows`` and ``solve_rows``. The last
four stay public because ``bench/tracing.py`` wraps them by name.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence


class InvariantViolation(RuntimeError):
    """A relation the underlying theory guarantees failed to hold."""


class GaussRational:
    """Exact complex scalar a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("floats are not exact; pass int, Fraction or str")
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def conjugate(self):
        return GaussRational(self.re, -self.im)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _coerce(value):
    if isinstance(value, GaussRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussRational(value)
    return None


ZERO = GaussRational(0)
ONE = GaussRational(1)
IMAG = GaussRational(0, 1)

#: Sparse vector: column index -> nonzero GaussRational.
Vec = dict


class ExactMatrix:
    """Sparse exact matrix; absent entries are zero, stored entries never zero."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Mapping = ()):
        self.rows = rows
        self.cols = cols
        clean = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for (r, c), v in items:
            if not 0 <= r < rows or not 0 <= c < cols:
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols} matrix")
            if not isinstance(v, GaussRational):
                v = GaussRational(v)
            if v:
                clean[(r, c)] = v
        self.entries = clean

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "ExactMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for r, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                if not isinstance(v, GaussRational):
                    v = GaussRational(v)
                if v:
                    entries[(r, c)] = v
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, {(i, i): ONE for i in range(n)})

    def entry(self, r: int, c: int) -> GaussRational:
        return self.entries.get((r, c), ZERO)

    def row_dicts(self) -> list:
        out = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        other_rows = other.row_dicts()
        acc = {}
        for (r, c), v in self.entries.items():
            for c2, w in other_rows[c].items():
                key = (r, c2)
                cur = acc.get(key)
                acc[key] = v * w if cur is None else cur + v * w
        return ExactMatrix(self.rows, other.cols, acc)

    def scaled(self, factor) -> "ExactMatrix":
        return ExactMatrix(
            self.rows, self.cols, {k: v * factor for k, v in self.entries.items()}
        )

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        acc = dict(self.entries)
        for k, v in other.entries.items():
            acc[k] = acc[k] + v if k in acc else v
        return ExactMatrix(self.rows, self.cols, acc)  # drops cancelled entries

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"


# ---------------------------------------------------------------------------
# Gaussian-integer rows and their conversions at the edge
# ---------------------------------------------------------------------------


def _ints(vectors: Sequence[Mapping]):
    """(rows, den): GaussRational vectors as Gaussian-integer pair rows times
    1/den, with den the least common denominator of all their entries."""
    den = 1
    for vec in vectors:
        for v in vec.values():
            den = lcm(den, v.re.denominator, v.im.denominator)
    rows = [
        {
            c: (v.re.numerator * (den // v.re.denominator),
                v.im.numerator * (den // v.im.denominator))
            for c, v in vec.items()
            if v
        }
        for vec in vectors
    ]
    return rows, den


def to_int_rows(vectors: Sequence[Mapping]) -> list:
    """Scale GaussRational vectors by one common denominator to Gaussian-integer
    pairs. The scaling is uniform, so it keeps kernels and linear relations
    between the vectors as well as their span."""
    return _ints(vectors)[0]


def _rationals(row: Mapping, den: int) -> dict:
    """The GaussRational vector row / den of a Gaussian-integer row."""
    return {c: GaussRational(Fraction(a, den), Fraction(b, den)) for c, (a, b) in row.items()}


def _scaled(row: dict, m: int) -> dict:
    return row if m == 1 else {c: (a * m, b * m) for c, (a, b) in row.items()}


# ---------------------------------------------------------------------------
# elimination core (Gaussian-integer rows, fraction free)
# ---------------------------------------------------------------------------


def _strip(row: dict) -> None:
    g = 0
    for a, b in row.values():
        if a:
            g = gcd(g, a)
        if b:
            g = gcd(g, b)
        if g == 1:
            return
    if g > 1:
        for c, (a, b) in row.items():
            row[c] = (a // g, b // g)


def _axpy(target: dict, source: dict, u, v) -> None:
    """target <- u*target - v*source over Gaussian integers, content-stripped."""
    ua, ub = u
    if ub:
        for c, (a, b) in target.items():
            target[c] = (ua * a - ub * b, ua * b + ub * a)
    elif ua != 1:
        for c, (a, b) in target.items():
            target[c] = (ua * a, ua * b)
    va, vb = v
    if vb:
        for c, (sa, sb) in source.items():
            wa = va * sa - vb * sb
            wb = va * sb + vb * sa
            cur = target.get(c)
            if cur is None:
                target[c] = (-wa, -wb)
            else:
                na = cur[0] - wa
                nb = cur[1] - wb
                if na or nb:
                    target[c] = (na, nb)
                else:
                    del target[c]
    else:
        for c, (sa, sb) in source.items():
            wa = va * sa
            wb = va * sb
            cur = target.get(c)
            if cur is None:
                target[c] = (-wa, -wb)
            else:
                na = cur[0] - wa
                nb = cur[1] - wb
                if na or nb:
                    target[c] = (na, nb)
                else:
                    del target[c]
    _strip(target)


def _eliminate(rows: dict, reduced: bool, pivot_limit=None):
    """Gauss-Jordan (reduced=True) or forward Gauss (reduced=False) on the
    given rows, processing columns in ascending order.

    ``rows`` maps row id -> Gaussian-integer row dict and is mutated in place.
    Returns the pivot list [(col, row_id), ...] with columns ascending.
    """
    occ = {}
    for rid, row in rows.items():
        for c in row:
            occ.setdefault(c, set()).add(rid)
    pivots = []
    in_pivot = set()
    for col in sorted(occ):
        if pivot_limit is not None and col >= pivot_limit:
            continue
        holders = [r for r in occ.pop(col) if col in rows[r]]
        cand = [r for r in holders if r not in in_pivot]
        if not cand:
            continue
        piv = min(cand, key=lambda r: (len(rows[r]), r))  # sparsest row first
        src = rows[piv]
        u = src[col]
        targets = holders if reduced else cand
        for r in targets:
            if r == piv:
                continue
            _axpy(rows[r], src, u, rows[r][col])
            bucket = occ
            for c in rows[r]:
                if c > col:
                    s = bucket.get(c)
                    if s is None:
                        bucket[c] = {r}
                    else:
                        s.add(r)
        pivots.append((col, piv))
        in_pivot.add(piv)
    return pivots


def _components(rows: Sequence[Mapping]):
    """Group row indices by connected column support (union-find). Eliminating
    group by group does the updates of one whole-matrix pass in less memory."""
    parent = {}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for row in rows:
        it = iter(row)
        first = next(it, None)
        if first is None:
            continue
        if first not in parent:
            parent[first] = first
        a = find(first)
        for c in it:
            if c not in parent:
                parent[c] = c
            b = find(c)
            if a != b:
                parent[b] = a
    groups = {}
    for i, row in enumerate(rows):
        if not row:
            continue
        root = find(next(iter(row)))
        groups.setdefault(root, []).append(i)
    # deterministic order: by smallest column in the component
    return sorted(groups.values(), key=lambda ids: min(min(rows[i]) for i in ids))


def _normalise(row: dict, col) -> tuple:
    """(out, d) with out / d = row / row[col] and d > 0 least: the row with
    pivot 1 at ``col``, as Gaussian integers over its own least denominator."""
    pa, pb = row[col]
    g = norm = pa * pa + pb * pb
    out = {c: (a * pa + b * pb, b * pa - a * pb) for c, (a, b) in row.items()}
    for a, b in out.values():
        if g == 1:
            break
        g = gcd(g, a, b)
    if g > 1:
        out = {c: (a // g, b // g) for c, (a, b) in out.items()}
    return out, norm // g


def _rref(int_rows: Sequence[dict]):
    """Canonical reduced echelon form of Gaussian-integer rows.

    Returns (rows, den, pivot_cols): the reduced rows times their least common
    denominator den, aligned with the pivot columns ascending. Independent
    column blocks are reduced separately; their reduced rows have disjoint
    support, so merging sorted by pivot keeps the form canonical.
    """
    merged = []
    for group in _components(int_rows):
        rows = {i: dict(int_rows[i]) for i in group}
        pivots = _eliminate(rows, reduced=True)
        merged.extend((col, *_normalise(rows[rid], col)) for col, rid in pivots)
    merged.sort(key=lambda item: item[0])
    den = lcm(*(d for _, _, d in merged))
    return [_scaled(row, den // d) for _, row, d in merged], den, [c for c, _, _ in merged]


def rref_rows(vectors: Sequence[Mapping]):
    """Reduced row echelon of sparse GaussRational rows.

    Returns (pivot_cols, rows) with pivot columns ascending, pivot entries 1
    and pivot columns cleared elsewhere; dependent input rows simply drop out.
    """
    rows, den, pivots = _rref(to_int_rows(vectors))
    return pivots, [_rationals(row, den) for row in rows]


def int_pivot_cols(int_rows: Sequence[dict]) -> list:
    """Column rank profile of Gaussian-integer pair rows, ascending.

    Column c is listed when it is independent of the columns before it, which
    makes these the pivot columns of the reduced row-echelon form; forward
    elimination of each independent column block finds them without the back
    substitution and normalisation that form needs.
    """
    cols = []
    for group in _components(int_rows):
        rows = {i: dict(int_rows[i]) for i in group}
        cols.extend(c for c, _ in _eliminate(rows, reduced=False))
    cols.sort()
    return cols


def _projected_ranks(rows: Sequence[dict], projections) -> tuple:
    """Rank of the image of Gaussian-integer rows under each projection, a
    map from a row to its image row."""
    return tuple(len(int_pivot_cols([proj(row) for row in rows])) for proj in projections)


def rank_rows(vectors: Sequence[Mapping]) -> int:
    """Rank of sparse GaussRational rows (forward elimination only)."""
    return len(int_pivot_cols(to_int_rows(vectors)))


def int_kernel_rows(int_rows: Sequence[dict], ncols: int) -> "SubspaceBasis":
    """Canonical basis of the joint kernel of Gaussian-integer pair rows.

    One Gauss-Jordan per column block, with the columns taken in descending
    order, leaves each pivot row with its pivot p at its largest column. For a
    free column f, the vector with 1 at f and -row_p[f] / row_p[p] at each
    pivot p has its leading 1 at f and zeros at the other free columns, so
    these vectors already are the canonical basis. They are read off a
    transpose mapping each free column to its (pivot, entry) pairs.
    """
    top = ncols - 1
    den, pivot_cols, by_free = 1, set(), {}
    for group in _components(int_rows):
        rows = {i: {top - c: v for c, v in int_rows[i].items()} for i in group}
        pivots = _eliminate(rows, reduced=True)
        if pivots[0][0] < 0:
            raise ValueError("row support exceeds stated column count")
        for col, rid in pivots:
            row, d = _normalise(rows[rid], col)
            den = lcm(den, d)
            del row[col]
            pivot_cols.add(top - col)
            for c, v in row.items():
                by_free.setdefault(top - c, []).append((top - col, v, d))
    free = [f for f in range(ncols) if f not in pivot_cols]
    vecs = []
    for f in free:
        vec = {f: (den, 0)}
        for p, (a, b), d in by_free.get(f, ()):
            m = den // d
            vec[p] = (-a * m, -b * m)
        vecs.append(vec)
    return SubspaceBasis(ncols, vecs, den, free, _trusted=True)


def kernel_rows(vectors: Sequence[Mapping], ncols: int) -> "SubspaceBasis":
    """Canonical basis of the joint kernel {x : row . x = 0 for all rows}."""
    return int_kernel_rows(to_int_rows(vectors), ncols)


class RowFactor:
    """Gaussian-integer rows reduced once on their first ``ncols`` columns,
    solved for many data.

    Split each row as (a, d) at column ``ncols``. ``solve(x)`` takes
    GaussRational data x over the columns from ``ncols`` on and returns h over
    the first ``ncols`` with a . h = d . x for every row and free coordinates
    zero, or None when no such h exists; ``rank`` is the rank of the a block.
    Scaling a row changes neither, so rows may carry any denominator.
    """

    __slots__ = ("rank", "_cols", "_den")

    def __init__(self, rows: Sequence[dict], ncols: int):
        int_rows = {i: dict(r) for i, r in enumerate(rows)}
        pivots = _eliminate(int_rows, reduced=True, pivot_limit=ncols)
        reduced = [(pc, *_normalise(int_rows[rid], pc)) for pc, rid in pivots]
        self.rank, self._cols = len(pivots), {}
        self._den = lcm(*(d for _, _, d in reduced))
        # pivot rows keep a tail in the data columns, the others lie only there:
        # data column -> [(pivot column, tail entry times _den) or (-1 - row id, entry)]
        for pc, row, d in reduced:
            m = self._den // d
            for c, (a, b) in row.items():
                if c >= ncols:
                    self._cols.setdefault(c, []).append((pc, (a * m, b * m)))
        for rid in set(int_rows) - {rid for _, rid in pivots}:
            for c, v in int_rows[rid].items():
                self._cols.setdefault(c, []).append((-1 - rid, v))

    def solve(self, x: Mapping):
        (data,), den = _ints([x])
        acc = {}
        for c, (xa, xb) in data.items():
            for key, (wa, wb) in self._cols.get(c, ()):
                re, im = xa * wa - xb * wb, xa * wb + xb * wa
                cur = acc.get(key)
                acc[key] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
        if any(a or b for key, (a, b) in acc.items() if key < 0):
            return None
        return _rationals({pc: v for pc, v in acc.items() if v != (0, 0)}, den * self._den)


def solve_rows(rows: Sequence[Mapping], ncols: int, rhs: Sequence[Mapping]):
    """Solve row . x = b for several right-hand sides at once.

    ``rows`` are the equations (sparse over columns 0..ncols-1); each rhs maps
    equation index -> value. Returns (solutions, rank) where solutions[j] is a
    particular solution with free coordinates set to zero, or None when the
    j-th system is inconsistent. A :class:`RowFactor` holds b_j in column ncols + j.
    """
    aug = [dict(r) for r in rows]
    for j, b in enumerate(rhs):
        for ri, val in b.items():
            if val:
                aug[ri][ncols + j] = val
    factor = RowFactor(to_int_rows(aug), ncols)
    return [factor.solve({ncols + j: ONE}) for j in range(len(rhs))], factor.rank


def _as_sparse_vec(v) -> dict:
    items = v.items() if isinstance(v, Mapping) else enumerate(v)
    out = {}
    for c, x in items:
        if not isinstance(x, GaussRational):
            x = GaussRational(x)
        if x:
            out[c] = x
    return out


class SubspaceBasis:
    """A subspace given by its canonical reduced-row-echelon basis.

    The basis has pivot columns ascending and pivot value 1. It is stored as
    Gaussian-integer pair ``rows``, the basis times ``den``, the least common
    denominator of its entries, so equal subspaces produce identical objects;
    ``vectors`` gives the same basis as GaussRational rows. Construct through
    :meth:`from_vectors`, which canonicalises any spanning set.
    """

    __slots__ = ("ambient_dim", "rows", "den", "pivots")

    def __init__(self, ambient_dim: int, rows, den, pivots, _trusted=False):
        if not _trusted:
            raise TypeError("use SubspaceBasis.from_vectors")
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.den = den
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable) -> "SubspaceBasis":
        as_dicts = []
        for v in vectors:
            vec = _as_sparse_vec(v)
            for c in vec:
                if not 0 <= c < ambient_dim:
                    raise ValueError("coordinate outside ambient space")
            as_dicts.append(vec)
        return cls(ambient_dim, *_rref(to_int_rows(as_dicts)), _trusted=True)

    @property
    def vectors(self) -> list:
        return [_rationals(row, self.den) for row in self.rows]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, vector) -> bool:
        vec = to_int_rows([_as_sparse_vec(vector)])[0]
        for pc, row in zip(self.pivots, self.rows):
            coeff = vec.get(pc)
            if coeff is not None:
                _axpy(vec, row, row[pc], coeff)
        return not vec

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and self.den == other.den
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} in ambient {self.ambient_dim})"
