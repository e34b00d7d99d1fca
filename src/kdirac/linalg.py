"""Exact linear algebra over the Gaussian rationals.

Scalars are complex numbers a + b*i with rational a and b, kept exact through
every operation, so each rank, kernel and echelon form computed here is a
statement about the input matrix rather than an approximation. Matrices and
vectors are sparse: only nonzero entries are stored.

The core has one representation, Gaussian-integer pair rows: sparse dicts
column -> ``(re, im)`` of ints. Scaling a row keeps its span, kernel and rank,
and scaling all rows by one factor keeps every relation between them, so
assemblers emit integer rows times one denominator and no fraction reaches
the elimination.

One kernel, ``_echelon``, eliminates: it takes the rows one at a time and
reduces each, fraction free (cross-multiplication updates plus content
stripping), against any ``held`` rows, which it never changes, then the rows
kept so far, keyed by leading column. The greedy flag search in ``tableau``
holds its state that way, so a reduction returns only the new pivots, the
rank added; it reduces a block only while its capped gain bound can win,
once per line modulo the chosen covectors U, as (λc + u) (x) W lies in
c (x) W + U (x) W (rules (a)-(c) of ``tableau._greedy_ordering``). Of two
rows leading at one column it keeps the one with the smaller lead
|re| + |im|, then the fewer entries (a local Markowitz-style rule), which
keeps fill and entry growth low on the sparse symbol matrices built
elsewhere in this package and on the dense rows of random flags.
``int_pivot_cols`` reads the column rank profile off its
leads; ``_rref`` back-substitutes its rows into the canonical reduced echelon
form, behind ``int_kernel_rows`` (the kernel) and :class:`RowFactor` (one
matrix reduced once for many data).
A :class:`SubspaceBasis` keeps its canonical reduced-row-echelon basis as
integer rows over one least denominator, so two equal subspaces always
produce bit-identical bases.

:class:`GaussRational` is the API edge: :class:`ExactMatrix`,
``SubspaceBasis.vectors`` and the thin conversions ``to_int_rows``,
``rref_rows``, ``rank_rows``, ``kernel_rows`` and ``solve_rows``. The last
four stay public because ``bench/tracing.py`` wraps them by name.
:class:`ExactMatrix` is the record of a matrix acting on spinors (a Clifford
generator, the chirality, the matrix of an operator term): its shape and its
sparse entries, with no arithmetic. Every product of spinor matrices or
operator coefficients is taken on Gaussian integers: the Kronecker products
of ``build_spinor_rep``, the relations of ``CliffordRep.verify``, the term
tables of ``polynomials.DiffOp`` and the bracket check of ``parabolic``. Flags
of V* are Gaussian-integer pair rows (``tableau.OrderedBasis``).
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


class ExactMatrix:
    """A spinor matrix as a record: ``rows`` x ``cols`` with sparse
    ``entries`` (row, col) -> GaussRational; absent entries are zero, stored
    entries never zero. Readers take ``entries`` directly."""

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
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, {(i, i): ONE for i in range(n)})

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
    """target <- u*target - v*source over Gaussian integers, content-stripped;
    target - (v/u)*source when u divides v."""
    ua, ub = u
    va, vb = v
    norm = ua * ua + ub * ub
    qa, ra = divmod(va * ua + vb * ub, norm)
    qb, rb = divmod(vb * ua - va * ub, norm)
    if not (ra or rb):
        ua, ub, va, vb = 1, 0, qa, qb
    if ub:
        for c, (a, b) in target.items():
            target[c] = (ua * a - ub * b, ua * b + ub * a)
    elif ua != 1:
        for c, (a, b) in target.items():
            target[c] = (ua * a, ua * b)
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


def _echelon(int_rows: Iterable[dict], limit=None, held=None):
    """Forward elimination of Gaussian-integer rows, one row at a time.

    Returns (pivots, rest): ``pivots`` maps each new lead column before
    ``limit`` to the one kept row leading there, ``rest`` lists the nonzero
    remainders leading at or past it. ``held`` (the greedy flag search's
    state), looked up only when given, maps lead columns to rows in echelon
    form that are never changed, swapped out or returned: a row is reduced
    against them first, so ``pivots`` holds only the leads the rows add.
    Each row is reduced until its lead is new; when two kept rows lead at one
    column the one with the smaller lead |re| + |im|, then the fewer entries,
    is kept and the other is reduced by it, which keeps entries small on
    dense rows. A row is copied before its first update, so the input rows
    are never changed; a row kept or left over unchanged is the caller's own
    object.
    """
    pivots, rest = {}, []
    for row in int_rows:
        mine = False
        while row:
            lead = min(row)
            if limit is not None and lead >= limit:
                rest.append(row)
                break
            other = held.get(lead) if held else None
            if other is None:
                other = pivots.get(lead)
                if other is None:
                    pivots[lead] = row
                    break
                (ra, rb), (ha, hb) = row[lead], other[lead]
                if (abs(ra) + abs(rb), len(row)) < (abs(ha) + abs(hb), len(other)):
                    pivots[lead], row, other, mine = row, other, row, False
            if not mine:
                row, mine = dict(row), True
            _axpy(row, other, other[lead], row[lead])
    return pivots, rest


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


def _rref(int_rows: Sequence[dict], limit=None):
    """Canonical reduced echelon form of Gaussian-integer rows.

    Returns (rows, den, pivot_cols, rest): the reduced rows times their least
    common denominator den, aligned with the pivot columns ascending, and the
    rows left without a pivot. Pivots lie before column ``limit`` if given, and
    ``rest`` past it; without a limit ``rest`` is empty. The forward pass of
    :func:`_echelon` is back-substituted from the last pivot down: each row
    clears the later pivot columns against rows already reduced and
    normalised, which hold no pivot column but their own.
    """
    pivots, rest = _echelon(int_rows, limit)
    cols = sorted(pivots)
    done = {}
    for col in reversed(cols):
        row = dict(pivots[col])  # may be the caller's row
        for c in [c for c in row if c in done]:
            out, d = done[c]
            _axpy(row, out, (d, 0), row[c])
        done[col] = _normalise(row, col)
    # a list: CPython resizes a tuple unpacked from a generator, which piles up in its free lists
    den = lcm(*[d for _, d in done.values()])
    return [_scaled(done[c][0], den // done[c][1]) for c in cols], den, cols, rest


def rref_rows(vectors: Sequence[Mapping]):
    """Reduced row echelon of sparse GaussRational rows.

    Returns (pivot_cols, rows) with pivot columns ascending, pivot entries 1
    and pivot columns cleared elsewhere; dependent input rows simply drop out.
    """
    rows, den, pivots, _ = _rref(to_int_rows(vectors))
    return pivots, [_rationals(row, den) for row in rows]


def int_pivot_cols(int_rows: Sequence[dict]) -> list:
    """Column rank profile of Gaussian-integer pair rows, ascending.

    Column c is listed when it is independent of the columns before it, which
    makes these the pivot columns of the reduced row-echelon form: the lead
    columns of the forward pass of :func:`_echelon`, found without the back
    substitution and normalisation that form needs.
    """
    return sorted(_echelon(int_rows)[0])


def _projected_ranks(rows: Sequence[dict], projections) -> tuple:
    """Rank of the image of Gaussian-integer rows under each projection, a
    map from a row to its image row."""
    return tuple(len(int_pivot_cols([proj(row) for row in rows])) for proj in projections)


def rank_rows(vectors: Sequence[Mapping]) -> int:
    """Rank of sparse GaussRational rows (forward elimination only)."""
    return len(int_pivot_cols(to_int_rows(vectors)))


def int_kernel_rows(int_rows: Sequence[dict], ncols: int) -> "SubspaceBasis":
    """Canonical basis of the joint kernel of Gaussian-integer pair rows.

    One ``_rref`` of the rows, columns taken in descending order, puts each
    pivot p at its row's largest column. For a free column f, the vector with
    1 at f and -row_p[f] / row_p[p] at each pivot p has its leading 1 at f and
    zeros at the other free columns, so these vectors already are the
    canonical basis, over the form's denominator; each pivot row fills in its
    entries of them.
    """
    top = ncols - 1
    rows, den, flipped, _ = _rref([{top - c: v for c, v in row.items()} for row in int_rows])
    if flipped and flipped[0] < 0:
        raise ValueError("row support exceeds stated column count")
    pivot_cols = {top - col for col in flipped}
    vecs = {f: {f: (den, 0)} for f in range(ncols) if f not in pivot_cols}
    for col, row in zip(flipped, rows):
        for c, (a, b) in row.items():
            if c != col:
                vecs[top - c][top - col] = (-a, -b)
    return SubspaceBasis(ncols, list(vecs.values()), den, list(vecs), _trusted=True)


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
        reduced, self._den, pivots, rest = _rref(rows, ncols)
        self.rank, self._cols = len(pivots), {}
        # pivot rows keep a tail in the data columns, the others lie only there:
        # data column -> [(pivot column, tail entry times _den) or (-1 - rest id, entry)]
        for key, row in [*zip(pivots, reduced), *((-1 - i, r) for i, r in enumerate(rest))]:
            for c, v in row.items():
                if c >= ncols:
                    self._cols.setdefault(c, []).append((key, v))

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
        return cls(ambient_dim, *_rref(to_int_rows(as_dicts))[:3], _trusted=True)

    @property
    def vectors(self) -> list:
        return [_rationals(row, self.den) for row in self.rows]

    @property
    def dim(self) -> int:
        return len(self.rows)

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
