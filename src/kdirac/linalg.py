"""Exact linear algebra over the Gaussian rationals.

Scalars are complex numbers a + b*i with rational a and b, kept exact through
every operation, so each rank, kernel and echelon form computed here is a
statement about the input matrix rather than an approximation. Matrices and
vectors are sparse: only nonzero entries are stored.

Elimination is fraction-free. Rows are scaled to Gaussian-integer entries and
reduced with cross-multiplication updates plus content stripping, which keeps
intermediate entries small; pivots are normalised to 1 only when the final
reduced row-echelon form is assembled. Columns that never interact are split
into independent blocks first, a large win on the very sparse symbol matrices
built elsewhere in this package.

Two kinds of entry point share that core:

* GaussRational rows (sparse dicts of :class:`GaussRational`): ``rref_rows``,
  ``rank_rows``, ``kernel_rows`` and ``solve_rows``, plus ``inverse`` of an
  :class:`ExactMatrix` and the canonical bases of :class:`SubspaceBasis`. Each
  row is scaled to Gaussian integers on entry. ``solve_rows`` reads its answers
  from a :class:`RowFactor`, which callers solving one matrix for many data keep.
* Gaussian-integer pair rows (sparse dicts of ``(re, im)`` int pairs), for
  assemblers that already produce integers: ``to_int_rows`` makes them from
  GaussRational vectors, ``int_pivot_cols`` returns the column rank profile
  by forward elimination only, and ``int_kernel_rows`` the kernel.

Subspaces are stored through their canonical reduced-row-echelon bases with
pivot columns ascending, so two equal subspaces always produce bit-identical
bases.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence


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

    def column_maps(self) -> list:
        """Per-column list of (row, value) pairs, rows ascending."""
        cols = [[] for _ in range(self.cols)]
        for (r, c), v in sorted(self.entries.items()):
            cols[c].append((r, v))
        return cols

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
            cur = acc.get(k)
            s = v if cur is None else cur + v
            if s:
                acc[k] = s
            elif cur is not None:
                del acc[k]
        return ExactMatrix(self.rows, self.cols, acc)

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
# elimination core (Gaussian-integer rows, fraction free)
# ---------------------------------------------------------------------------


def _to_int_row(vec: Mapping) -> dict:
    """Scale a GaussRational vector to Gaussian-integer pairs (row scaling is
    harmless for row spaces, kernels and ranks)."""
    den = 1
    for v in vec.values():
        den = lcm(den, v.re.denominator, v.im.denominator)
    out = {}
    for c, v in vec.items():
        if v:
            out[c] = (int(v.re * den), int(v.im * den))
    return out


def to_int_rows(vectors: Sequence[Mapping]) -> list:
    """Scale GaussRational vectors by one common denominator to Gaussian-integer
    pairs. The scaling is uniform, so it keeps kernels and linear relations
    between the vectors as well as their span."""
    den = 1
    for vec in vectors:
        for v in vec.values():
            den = lcm(den, v.re.denominator, v.im.denominator)
    return [
        {c: (int(v.re * den), int(v.im * den)) for c, v in vec.items() if v}
        for vec in vectors
    ]


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


def _pivot_key(rows):
    def key(rid):
        row = rows[rid]
        # prefer unit pivots (no rescaling pass), then sparse rows
        return (len(row), rid)

    return key


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
    key = _pivot_key(rows)
    for col in sorted(occ):
        if pivot_limit is not None and col >= pivot_limit:
            continue
        holders = [r for r in occ.pop(col) if col in rows[r]]
        cand = [r for r in holders if r not in in_pivot]
        if not cand:
            continue
        piv = min(cand, key=key)
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
    """Group row indices by connected column support (union-find)."""
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
    def group_min(ids):
        return min(min(rows[i]) for i in ids)

    return sorted(groups.values(), key=group_min)


def _normalise(rows: dict, pivots) -> list:
    """Turn stripped integer pivot rows into GaussRational rows with pivot 1."""
    out = []
    for col, rid in pivots:
        row = rows[rid]
        pa, pb = row[col]
        norm = pa * pa + pb * pb
        vec = {}
        for c, (a, b) in row.items():
            re = Fraction(a * pa + b * pb, norm)
            im = Fraction(b * pa - a * pb, norm)
            if re or im:
                vec[c] = GaussRational(re, im)
        out.append((col, vec))
    return out


def _rref_int_rows(int_rows: Sequence[dict]):
    """Canonical reduced echelon data for integer-pair rows.

    Returns (pivot_cols ascending, normalised GaussRational rows aligned with
    the pivots). Independent column blocks are reduced separately; their
    reduced rows have disjoint support, so merging sorted by pivot keeps the
    global form canonical.
    """
    merged = []
    for group in _components(int_rows):
        rows = {i: dict(int_rows[i]) for i in group}
        pivots = _eliminate(rows, reduced=True)
        merged.extend(_normalise(rows, pivots))
    merged.sort(key=lambda item: item[0])
    return [c for c, _ in merged], [vec for _, vec in merged]


def rref_rows(vectors: Sequence[Mapping]):
    """Reduced row echelon of sparse GaussRational rows.

    Returns (pivot_cols, rows) with pivot columns ascending, pivot entries 1
    and pivot columns cleared elsewhere; dependent input rows simply drop out.
    """
    return _rref_int_rows([_to_int_row(v) for v in vectors])


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


def rank_rows(vectors: Sequence[Mapping]) -> int:
    """Rank of sparse GaussRational rows (forward elimination only)."""
    return len(int_pivot_cols([_to_int_row(v) for v in vectors]))


def int_kernel_rows(int_rows: Sequence[dict], ncols: int) -> "SubspaceBasis":
    """Canonical basis of the joint kernel of Gaussian-integer pair rows."""
    pivot_cols, rows = _rref_int_rows(int_rows)
    if pivot_cols and pivot_cols[-1] >= ncols:
        raise ValueError("row support exceeds stated column count")
    pivot_set = set(pivot_cols)
    vecs = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = {f: ONE}
        for pc, row in zip(pivot_cols, rows):
            val = row.get(f)
            if val is not None:
                vec[pc] = -val
        vecs.append(vec)
    return SubspaceBasis.from_vectors(ncols, vecs)


def kernel_rows(vectors: Sequence[Mapping], ncols: int) -> "SubspaceBasis":
    """Canonical basis of the joint kernel {x : row . x = 0 for all rows}."""
    return int_kernel_rows([_to_int_row(v) for v in vectors], ncols)


class RowFactor:
    """Rows reduced once on their first ``ncols`` columns, solved for many data.

    Split each row as (a, d) at column ``ncols``. ``solve(x)`` takes data x over
    the columns from ``ncols`` on and returns h over the first ``ncols`` with
    a . h = d . x for every row and free coordinates zero, or None when no such
    h exists; ``rank`` is the rank of the a block.
    """

    __slots__ = ("rank", "_cols")

    def __init__(self, rows: Sequence[Mapping], ncols: int):
        int_rows = {i: _to_int_row(r) for i, r in enumerate(rows)}
        pivots = _eliminate(int_rows, reduced=True, pivot_limit=ncols)
        self.rank, self._cols = len(pivots), {}
        # pivot rows keep a tail in the data columns, the others lie only there:
        # data column -> [(pivot column, tail entry) or (-1 - row id, entry)]
        for pc, vec in _normalise(int_rows, pivots):
            for c, v in vec.items():
                if c >= ncols:
                    self._cols.setdefault(c, []).append((pc, v))
        for rid in set(int_rows) - {rid for _, rid in pivots}:
            for c, (a, b) in int_rows[rid].items():
                self._cols.setdefault(c, []).append((-1 - rid, GaussRational(a, b)))

    def solve(self, x: Mapping):
        acc = {}
        for c, v in x.items():
            unit = v == ONE
            for key, w in self._cols.get(c, ()):
                w = w if unit else v * w
                cur = acc.get(key)
                acc[key] = w if cur is None else cur + w
        if any(v for key, v in acc.items() if key < 0):
            return None
        return {pc: v for pc, v in acc.items() if v}


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
    factor = RowFactor(aug, ncols)
    return [factor.solve({ncols + j: ONE}) for j in range(len(rhs))], factor.rank


# ---------------------------------------------------------------------------
# public matrix operations
# ---------------------------------------------------------------------------


def inverse(m: ExactMatrix) -> ExactMatrix:
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    rhs = [{i: ONE} for i in range(m.rows)]
    solutions, rank = solve_rows(m.row_dicts(), m.cols, rhs)
    if rank != m.cols:
        raise ValueError("matrix is singular")
    entries = {}
    for j, col in enumerate(solutions):
        for i, v in col.items():
            entries[(i, j)] = v
    return ExactMatrix(m.rows, m.cols, entries)


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

    ``vectors`` are sparse rows with pivot columns ascending and pivot value 1;
    equal subspaces therefore produce identical objects. Construct through
    :meth:`from_vectors`, which canonicalises any spanning set.
    """

    __slots__ = ("ambient_dim", "vectors", "pivots")

    def __init__(self, ambient_dim: int, vectors, pivots, _trusted=False):
        if not _trusted:
            raise TypeError("use SubspaceBasis.from_vectors")
        self.ambient_dim = ambient_dim
        self.vectors = vectors
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
        pivots, rows = rref_rows(as_dicts)
        return cls(ambient_dim, rows, pivots, _trusted=True)

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def contains(self, vector) -> bool:
        vec = _as_sparse_vec(vector)
        for pc, row in zip(self.pivots, self.vectors):
            coeff = vec.get(pc)
            if coeff is None or not coeff:
                continue
            for c, v in row.items():
                cur = vec.get(c, ZERO) - coeff * v
                if cur:
                    vec[c] = cur
                elif c in vec:
                    del vec[c]
        return not vec

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and self.ambient_dim == other.ambient_dim
            and self.pivots == other.pivots
            and self.vectors == other.vectors
        )

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} in ambient {self.ambient_dim})"
