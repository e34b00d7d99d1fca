"""Spinor-valued polynomials, first-order operators with polynomial
coefficients, and the skeleton both k-Dirac systems share.

Variables carry positive integer weights (weight 1 for matrix coordinates,
weight 2 for the skew coordinates of the extended space), monomials are graded
by the weighted degree and enumerated in a fixed order, so every coefficient
matrix built here is reproducible entry for entry.

A differential operator is a sum of terms (coefficient polynomial) *
(coordinate derivative) * (spinor matrix). Homogeneous operators shift the
weighted degree by a fixed amount; ``solution_space`` exploits that to reduce
"all weighted-degree-r solutions" to one exact kernel computation.

A :class:`SlotSystem` is k such slot operators on a variable set: it reads
its symbol tableau off the operators' constant-coefficient terms and keeps
the memos of its solution slices and of ``solve_correction``.

Coefficients are GaussRational at the interface. Inside, each operator keeps
one term table of Gaussian-integer pairs over one denominator: ``apply_op``
accumulates over it in integers, and the coefficient matrices it assembles
are Gaussian-integer rows for the elimination core.
"""

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .linalg import (
    GaussRational,
    RowFactor,
    SubspaceBasis,
    ZERO,
    _ints,
    _rationals,
    int_kernel_rows,
    int_pivot_cols,
)
from .tableau import Tableau

Exponents = tuple


@dataclass(frozen=True)
class VariableSet:
    names: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.names) != len(self.weights):
            raise ValueError("names and weights must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive integers")

    @classmethod
    def of(cls, names, weights=None) -> "VariableSet":
        names = tuple(names)
        if weights is None:
            weights = (1,) * len(names)
        return cls(names, tuple(weights))

    def __len__(self):
        return len(self.names)

    def weighted_degree(self, exponents: Exponents) -> int:
        return sum(e * w for e, w in zip(exponents, self.weights))

    def zero_exponents(self) -> Exponents:
        return (0,) * len(self.names)


def monomial_basis(vars: VariableSet, weighted_degree: int):
    """All exponent vectors of the given weighted degree.

    The order is graded lexicographic: within the fixed degree, exponent
    tuples descend lexicographically (earlier variables carry higher powers
    first). The listing is complete and duplicate free.
    """
    if weighted_degree < 0:
        raise ValueError("weighted degree must be nonnegative")
    weights = vars.weights
    nvars = len(weights)
    out = []
    exps = [0] * nvars

    def fill(pos: int, remaining: int):
        if pos == nvars - 1:
            q, r = divmod(remaining, weights[pos])
            if r == 0:
                exps[pos] = q
                out.append(tuple(exps))
                exps[pos] = 0
            return
        w = weights[pos]
        for e in range(remaining // w, -1, -1):
            exps[pos] = e
            fill(pos + 1, remaining - e * w)
        exps[pos] = 0

    if nvars == 0:
        return [()] if weighted_degree == 0 else []
    fill(0, weighted_degree)
    return out


class SpinorPoly:
    """Polynomial with one coefficient polynomial per spinor component.

    ``coeffs`` maps (exponent tuple, spinor index) to a nonzero scalar.
    Instances are treated as immutable; all operations return new objects.
    """

    __slots__ = ("vars", "spinor_dim", "coeffs")

    def __init__(self, vars: VariableSet, spinor_dim: int, coeffs: Mapping = ()):
        self.vars = vars
        self.spinor_dim = spinor_dim
        clean = {}
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        for (exps, mu), v in items:
            if len(exps) != len(vars):
                raise ValueError("exponent vector has wrong length")
            if exps and min(exps) < 0:
                raise ValueError(f"negative exponent in {tuple(exps)}")
            if not 0 <= mu < spinor_dim:
                raise ValueError("spinor index out of range")
            if not isinstance(v, GaussRational):
                v = GaussRational(v)
            if v:
                clean[(tuple(exps), mu)] = v
        self.coeffs = clean

    @classmethod
    def zero(cls, vars: VariableSet, spinor_dim: int) -> "SpinorPoly":
        return cls(vars, spinor_dim)

    @classmethod
    def monomial(cls, vars, spinor_dim, exps, mu, coeff=1) -> "SpinorPoly":
        return cls(vars, spinor_dim, {(tuple(exps), mu): coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "SpinorPoly") -> "SpinorPoly":
        self._check_compatible(other)
        acc = dict(self.coeffs)
        for key, v in other.coeffs.items():
            acc[key] = acc[key] + v if key in acc else v
        return SpinorPoly(self.vars, self.spinor_dim, acc)  # drops cancelled terms

    def __sub__(self, other: "SpinorPoly") -> "SpinorPoly":
        return self + other.scaled(GaussRational(-1))

    def scaled(self, factor) -> "SpinorPoly":
        if not isinstance(factor, GaussRational):
            factor = GaussRational(factor)
        if not factor:
            return SpinorPoly.zero(self.vars, self.spinor_dim)
        return SpinorPoly(
            self.vars,
            self.spinor_dim,
            {k: v * factor for k, v in self.coeffs.items()},
        )

    def __eq__(self, other):
        return (
            isinstance(other, SpinorPoly)
            and self.vars == other.vars
            and self.spinor_dim == other.spinor_dim
            and self.coeffs == other.coeffs
        )

    def weighted_degrees(self) -> set:
        return {self.vars.weighted_degree(exps) for (exps, _) in self.coeffs}

    def substitute_zero(self, var_indices) -> "SpinorPoly":
        """Set the given variables to zero (drop monomials that contain them)."""
        kill = set(var_indices)
        keep = {
            key: v
            for key, v in self.coeffs.items()
            if all(key[0][i] == 0 for i in kill)
        }
        return SpinorPoly(self.vars, self.spinor_dim, keep)

    def __repr__(self):
        return f"SpinorPoly({len(self.coeffs)} terms, s={self.spinor_dim})"

    def _check_compatible(self, other):
        if self.vars != other.vars or self.spinor_dim != other.spinor_dim:
            raise ValueError("incompatible polynomial spaces")


def scalar_multiply(poly: Mapping, psi: SpinorPoly) -> SpinorPoly:
    """Multiply a spinor polynomial by a scalar polynomial given as a sparse
    map from exponent tuples to coefficients."""
    acc = {}
    for pexp, pval in poly.items():
        if not isinstance(pval, GaussRational):
            pval = GaussRational(pval)
        for (exps, mu), v in psi.coeffs.items():
            key = (tuple(a + b for a, b in zip(exps, pexp)), mu)
            acc[key] = acc.get(key, ZERO) + pval * v
    return SpinorPoly(psi.vars, psi.spinor_dim, acc)  # drops cancelled terms


class DiffOp:
    """First-order operator sum of (coefficient poly) * d/d(var) * (matrix).

    Coefficient polynomials are sparse maps exponent-tuple -> scalar; each
    matrix acts on the spinor index after differentiation and multiplication.
    ``apply_op`` and the coefficient matrices of ``_constraint_rows`` both read
    one term table: per (variable, coefficient monomial), the spinor columns
    mu -> [(nu, coefficient times matrix entry)] as Gaussian-integer pairs,
    all scaled by one denominator ``_den``.
    """

    __slots__ = ("vars", "spinor_dim", "_table", "_den")

    def __init__(self, vars: VariableSet, spinor_dim: int, terms: Sequence):
        self.vars = vars
        self.spinor_dim = spinor_dim
        products = {}
        for coeff, var, matrix in terms:
            if not 0 <= var < len(vars):
                raise ValueError("derivative variable out of range")
            if matrix.rows != spinor_dim or matrix.cols != spinor_dim:
                raise ValueError("matrix size must match the spinor dimension")
            for cexp, cval in coeff.items():
                if len(cexp) != len(vars) or (cexp and min(cexp) < 0):
                    raise ValueError(f"coefficient exponents {tuple(cexp)} are not"
                                     f" {len(vars)} nonnegative integers")
                for (nu, mu), mval in matrix.entries.items():
                    key = (var, tuple(cexp), mu, nu)
                    products[key] = products.get(key, ZERO) + mval * cval
        (products,), self._den = _ints([products])
        table = {}
        for (var, cexp, mu, nu), v in sorted(products.items()):
            cols = table.setdefault((var, cexp), [[] for _ in range(spinor_dim)])
            cols[mu].append((nu, v))
        self._table = tuple((var, cexp, cols) for (var, cexp), cols in table.items())

    def weighted_shift(self) -> int:
        """The common weighted-degree shift of all terms.

        Raises ValueError when terms shift the grading differently (as the
        monomials of a weighted-inhomogeneous coefficient do) or when there
        is no term.
        """
        shifts = {
            self.vars.weighted_degree(cexp) - self.vars.weights[var]
            for var, cexp, _ in self._table
        }
        if len(shifts) != 1:
            raise ValueError("operator has no single weighted-degree shift")
        return shifts.pop()


def _lowered(exps, var, cexp):
    """The exponents of d/d(var) applied to x^exps, times x^cexp."""
    out = [a + b for a, b in zip(exps, cexp)]
    out[var] -= 1
    return tuple(out)


def apply_op(op: DiffOp, p: SpinorPoly) -> SpinorPoly:
    """Exact application: differentiate, multiply by the coefficient, then act
    on the spinor index. Linear in ``p``. Accumulates over Gaussian integers
    and divides by the common denominator once at the end."""
    if op.vars != p.vars or op.spinor_dim != p.spinor_dim:
        raise ValueError("operator and polynomial live on different spaces")
    (coeffs,), den = _ints([p.coeffs])
    acc = {}
    for var, cexp, cols in op._table:
        for (exps, mu), (xa, xb) in coeffs.items():
            e = exps[var]
            if not e or not cols[mu]:
                continue
            shifted = _lowered(exps, var, cexp)
            xa, xb = xa * e, xb * e
            for nu, (ma, mb) in cols[mu]:
                key = (shifted, nu)
                re, im = xa * ma - xb * mb, xa * mb + xb * ma
                cur = acc.get(key)
                acc[key] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
    out = {key: v for key, v in acc.items() if v != (0, 0)}
    return SpinorPoly(p.vars, p.spinor_dim, _rationals(out, den * op._den))


def _constraint_rows(
    ops: Sequence[DiffOp],
    vars: VariableSet,
    spinor_dim: int,
    weighted_degree: int,
    monos=None,
):
    """Stacked coefficient matrix of the ops on the weighted-degree slice, as
    Gaussian-integer pair rows.

    Rows come in blocks, one per operator, indexed by (target monomial,
    spinor component) within the block; each block is the operator's matrix
    times its table denominator, a row scaling that keeps kernels, ranks and
    solutions. Columns are indexed by (source monomial, spinor component) with
    the spinor index minor. The source monomials are ``monos`` in the given
    order, by default the whole ``monomial_basis`` of the degree. Returns
    (rows, ncols); rows with no entry are kept, so row ids stay positional.
    """
    shifts = []
    for op in ops:
        shift = op.weighted_shift()
        if shift >= 0:
            raise ValueError("operators must lower the weighted degree")
        shifts.append(shift)
    if monos is None:
        monos = monomial_basis(vars, weighted_degree)
    ncols = len(monos) * spinor_dim
    rows = []
    indexes = {d: {e: i for i, e in enumerate(monomial_basis(vars, d))}
               for d in {weighted_degree + shift for shift in shifts} if d >= 0}
    for op, shift in zip(ops, shifts):
        target_deg = weighted_degree + shift
        if target_deg < 0:
            continue
        targets = indexes[target_deg]
        base_row = len(rows)
        rows += [{} for _ in range(len(targets) * spinor_dim)]
        for m_idx, exps in enumerate(monos):
            for var, cexp, cols in op._table:
                e = exps[var]
                if not e:
                    continue
                t_row = base_row + targets[_lowered(exps, var, cexp)] * spinor_dim
                for mu, column in enumerate(cols):
                    col = m_idx * spinor_dim + mu
                    for nu, (a, b) in column:
                        row = rows[t_row + nu]
                        re, im = e * a, e * b
                        cur = row.get(col)
                        if cur is not None:
                            re, im = re + cur[0], im + cur[1]
                            if not (re or im):
                                del row[col]
                                continue
                        row[col] = (re, im)
    return rows, ncols


def solution_space(
    ops: Sequence[DiffOp], vars: VariableSet, spinor_dim: int, weighted_degree: int
) -> SubspaceBasis:
    """Canonical basis of the weighted-degree-homogeneous joint kernel.

    Coordinates pair (monomial, spinor component): monomials in the
    ``monomial_basis`` order, spinor index minor.
    """
    rows, ncols = _constraint_rows(ops, vars, spinor_dim, weighted_degree)
    return int_kernel_rows(rows, ncols)


def solution_dim(
    ops: Sequence[DiffOp], vars: VariableSet, spinor_dim: int, weighted_degree: int
) -> int:
    """Dimension of the solution slice without materialising a basis: the
    corank of the constraint rows, with the columns taken in descending order
    as ``int_kernel_rows`` takes them, which needs fewer row updates here."""
    rows, ncols = _constraint_rows(ops, vars, spinor_dim, weighted_degree)
    top = ncols - 1
    return ncols - len(int_pivot_cols([{top - c: v for c, v in row.items()} for row in rows]))


_APART = "base and unknown monomials must be apart and of one degree"


def solve_correction(
    ops: Sequence[DiffOp], base: SpinorPoly, unknown: Sequence, factors: dict
):
    """Complete a known homogeneous part to a joint solution of the ops.

    Finds ``h`` supported on the ``unknown`` monomials (exponent tuples of the
    weighted degree of ``base``) with op(base + h) = 0 for every op; ``base``
    may use only the other monomials of that degree. The degree is read off
    ``base``, or off the first unknown when ``base`` is zero.

    ``factors`` is the caller's memo for this list of ops (a system keeps
    one), keyed by (degree, tuple(unknown)). Its entry is built once: the
    unknown monomials are checked to be of the degree, the coefficient matrix
    over all monomials of the degree, unknown ones first, is reduced into a
    :class:`RowFactor`, and ``col_of`` indexes those monomials. A hit means
    the same unknown list was already checked, so one datum costs mapping
    ``base`` through ``col_of`` (a monomial missing from it, or indexed among
    the unknowns, raises ValueError) and one ``RowFactor.solve``.

    Returns (h, rank): h is a particular solution (free coordinates zero) or
    None when none exists, and rank is that of the unknown block, so the
    solution is unique exactly when rank == len(unknown) * spinor_dim.
    """
    vars, s = base.vars, base.spinor_dim
    if not base.coeffs and not unknown:
        raise ValueError(_APART)
    degree = vars.weighted_degree(next(iter(base.coeffs))[0] if base.coeffs else unknown[0])
    key = (degree, tuple(unknown))
    if key not in factors:
        if any(vars.weighted_degree(e) != degree for e in unknown):
            raise ValueError(_APART)
        skip = set(unknown)
        monos = list(unknown)
        monos += [e for e in monomial_basis(vars, degree) if e not in skip]
        rows, _ = _constraint_rows(ops, vars, s, degree, monos)
        col_of = {e: idx for idx, e in enumerate(monos)}
        factors[key] = (monos, col_of, RowFactor(rows, len(unknown) * s))
    monos, col_of, factor = factors[key]
    first, x = len(unknown), {}
    for (e, mu), v in base.coeffs.items():
        col = col_of.get(e, -1)
        if col < first:
            raise ValueError(_APART)
        x[col * s + mu] = -v
    h = factor.solve(x)
    return (None if h is None else _as_poly(vars, s, monos, h)), factor.rank


def _as_poly(vars: VariableSet, spinor_dim: int, monos, vec) -> SpinorPoly:
    """The polynomial with coordinate vector ``vec`` over (monos, spinor)."""
    coeffs = {}
    for col, v in vec.items():
        m_idx, mu = divmod(col, spinor_dim)
        coeffs[(monos[m_idx], mu)] = v
    return SpinorPoly(vars, spinor_dim, coeffs)


def basis_polynomials(vars: VariableSet, spinor_dim: int, weighted_degree: int, basis):
    """Reconstruct SpinorPoly objects from solution-space coordinate vectors."""
    monos = monomial_basis(vars, weighted_degree)
    return [_as_poly(vars, spinor_dim, monos, vec) for vec in basis.vectors]


class SlotSystem:
    """The k slot operators ``ops`` of a k-Dirac system on ``vars``; a
    subclass sets ``ops`` after this constructor. V*-coordinates follow
    ``vars``: the matrix block x_{alpha i} alpha-major, then any others.
    A subclass's ``prefix`` names the system in failure messages, as in
    "e(3,2)".
    """

    def __init__(self, rep, vars: VariableSet):
        self.rep = rep
        self.params = rep.params
        self.vars = vars
        self._tableau = None
        self._spaces = {}
        self._unknowns = {}  # the extension's or lift's unknown monomials per degree
        self._factors = {}  # the solve_correction memo of their factors

    @property
    def n(self):
        return self.params.n

    @property
    def k(self):
        return self.params.k

    @property
    def s(self):
        return self.params.s

    @property
    def dim_V(self):
        return len(self.vars)

    def var_index(self, alpha: int, i: int) -> int:
        """0-based variable/coordinate index of x_{alpha i} (1-based labels)."""
        if not (1 <= alpha <= self.n and 1 <= i <= self.k):
            raise ValueError("matrix entry labels out of range")
        return (alpha - 1) * self.k + (i - 1)

    def tableau(self) -> Tableau:
        """Symbol tableau: the kernel in V* (x) Sp of the principal symbol at
        the origin, where only constant coefficients survive. Row (op, nu)
        holds at coordinate var * s + mu the (nu, mu) entry of the op's
        constant-coefficient matrix at d/d(var), read off its term table."""
        if self._tableau is None:
            const, s = self.vars.zero_exponents(), self.s
            rows = []
            for op in self.ops:
                block = [{} for _ in range(s)]
                for var, cexp, cols in op._table:
                    if cexp == const:
                        for mu, column in enumerate(cols):
                            for nu, v in column:
                                block[nu][var * s + mu] = v
                rows += block
            self._tableau = Tableau(self.dim_V, s, int_kernel_rows(rows, self.dim_V * s))
            self._tableau.system = f"{self.prefix}({self.n},{self.k})"
        return self._tableau

    def monogenic_space(self, r: int) -> SubspaceBasis:
        """Basis of the weighted-degree-r solutions, see ``solution_space``."""
        if r not in self._spaces:
            self._spaces[r] = solution_space(self.ops, self.vars, self.s, r)
        return self._spaces[r]

    def monogenic_dim(self, r: int) -> int:
        if r in self._spaces:
            return self._spaces[r].dim
        return solution_dim(self.ops, self.vars, self.s, r)
