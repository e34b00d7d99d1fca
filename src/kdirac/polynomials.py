"""Spinor-valued polynomials, first-order operators with polynomial
coefficients, and the skeleton both k-Dirac systems share.

Variables carry positive integer weights (weight 1 for matrix coordinates,
weight 2 for the skew coordinates of the extended space), monomials are graded
by the weighted degree and enumerated in a fixed order, so every coefficient
matrix built here is reproducible entry for entry.

The enumeration is done once per variable set (names and weights) and
degree. ``_grade`` holds the degree's monomials as a tuple with their
positions; ``_lowering`` holds, for one term x^c d/dx_v on a degree, the
(source position, target position, exponent of x_v) of every monomial the
term does not kill. Both are built on first use and shared read-only:
``_constraint_rows`` maps any column order onto them, and ``solution_dim``
takes its columns over the reversed grade tuple. Only the combinatorics is
kept; every elimination runs on every call.

A differential operator is a sum of terms (coefficient polynomial) *
(coordinate derivative) * (spinor matrix). Homogeneous operators shift the
weighted degree by a fixed amount; ``solution_space`` exploits that to reduce
"all weighted-degree-r solutions" to one exact kernel computation.

A :class:`SlotSystem` builds both k-Dirac systems: the variables and the k
slot operators sum_alpha gamma_alpha F_{alpha i}, the field F read from one
hook. It reads its symbol tableau off the operators' constant-coefficient
terms and keeps the memo of its solution slices. Its ``complete`` fills in the
free monomials of a known part so that the result solves given operators,
one ``RowFactor`` per key serving many data: the k = 2 extension from initial
data and the parabolic lift both run on it.

Coefficients are GaussRational at the interface. Inside, each operator keeps
one term table of Gaussian-integer pairs over one denominator: ``apply_op``
accumulates over it in integers, and the coefficient matrices it assembles
are Gaussian-integer rows for the elimination core.
"""

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cache
from math import gcd
from types import MappingProxyType

from .linalg import (
    GaussRational,
    InvariantViolation,
    ONE,
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
        # tuples keep the set hashable: it keys the shared grade tables
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "weights", tuple(self.weights))
        if len(self.names) != len(self.weights):
            raise ValueError("names and weights must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be positive integers")

    @classmethod
    def of(cls, names, weights=None) -> "VariableSet":
        names = tuple(names)
        return cls(names, (1,) * len(names) if weights is None else weights)

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


@cache
def _grade(vars: VariableSet, weighted_degree: int):
    """(monos, index): the ``monomial_basis`` of the degree as a tuple and
    each monomial's position in it, built once per variable set and degree
    and shared read-only by every caller."""
    monos = tuple(monomial_basis(vars, weighted_degree))
    return monos, MappingProxyType({e: i for i, e in enumerate(monos)})


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


def _require_exponents(what: str, exps, vars: VariableSet) -> None:
    """Refuse an exponent tuple that is not len(vars) nonnegative integers."""
    if len(exps) != len(vars) or (exps and min(exps) < 0):
        raise ValueError(f"{what} exponents {tuple(exps)} are not"
                         f" {len(vars)} nonnegative integers")


def scalar_multiply(poly: Mapping, psi: SpinorPoly) -> SpinorPoly:
    """Multiply a spinor polynomial by a scalar polynomial given as a sparse
    map from exponent tuples to coefficients."""
    acc = {}
    for pexp, pval in poly.items():
        _require_exponents("scalar", pexp, psi.vars)
        if not isinstance(pval, GaussRational):
            pval = GaussRational(pval)
        for (exps, mu), v in psi.coeffs.items():
            key = (tuple(a + b for a, b in zip(exps, pexp)), mu)
            acc[key] = acc.get(key, ZERO) + pval * v
    return SpinorPoly(psi.vars, psi.spinor_dim, acc)  # drops cancelled terms


class DiffOp:
    """First-order operator sum of (coefficient poly) * d/d(var) * (matrix).

    Coefficient polynomials are sparse maps exponent-tuple -> scalar; each
    matrix acts on the spinor index after differentiation and
    multiplication. ``apply_op`` and the coefficient matrices of
    ``_constraint_rows`` both read one term table: per (variable, coefficient
    monomial), the spinor columns mu -> [(nu, coefficient times matrix
    entry)] as Gaussian-integer pairs, all scaled by one denominator ``_den``.
    It is built in integers: the coefficients and the matrix entries are
    scaled once to Gaussian integers and multiplied, and the products and
    their denominator are divided by their gcd, so ``_den`` is the least one.
    """

    __slots__ = ("vars", "spinor_dim", "_table", "_den")

    def __init__(self, vars: VariableSet, spinor_dim: int, terms: Sequence):
        self.vars = vars
        self.spinor_dim = spinor_dim
        for coeff, var, matrix in terms:
            if not 0 <= var < len(vars):
                raise ValueError("derivative variable out of range")
            if matrix.rows != spinor_dim or matrix.cols != spinor_dim:
                raise ValueError("matrix size must match the spinor dimension")
            for cexp in coeff:
                _require_exponents("coefficient", cexp, vars)
        coeffs, cden = _ints([{e: v if isinstance(v, GaussRational) else GaussRational(v)
                               for e, v in coeff.items()} for coeff, _, _ in terms])
        mats, mden = _ints([matrix.entries for _, _, matrix in terms])
        products = {}
        for (_, var, _), coeff, matrix in zip(terms, coeffs, mats):
            for cexp, (ca, cb) in coeff.items():
                for (nu, mu), (ma, mb) in matrix.items():
                    key = (var, tuple(cexp), mu, nu)
                    re, im = products.get(key, (0, 0))
                    products[key] = (re + ma * ca - mb * cb, im + ma * cb + mb * ca)
        g = gcd(cden * mden, *(x for v in products.values() for x in v))
        self._den = cden * mden // g
        table = {}
        for (var, cexp, mu, nu), (re, im) in sorted(products.items()):
            if re or im:
                cols = table.setdefault((var, cexp), [[] for _ in range(spinor_dim)])
                cols[mu].append((nu, (re // g, im // g)))
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


@cache
def _lowering(vars: VariableSet, weighted_degree: int, var: int, cexp) -> tuple:
    """The term x^cexp d/d(var) on the degree's ``_grade``, as three aligned
    tuples: the source position, the target position and the exponent of var
    of each monomial it does not kill, targets in the ``_grade`` of the
    shifted degree. Built once per variable set, degree and term, shared
    read-only; aligned tuples of ints take a third of the memory of one tuple
    per monomial."""
    monos, _ = _grade(vars, weighted_degree)
    _, index = _grade(vars, weighted_degree - vars.weights[var] + vars.weighted_degree(cexp))
    srcs = tuple(src for src, exps in enumerate(monos) if exps[var])
    return (srcs, tuple(index[_lowered(monos[src], var, cexp)] for src in srcs),
            tuple(monos[src][var] for src in srcs))


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
    spinor component) within the block, targets in ``_grade`` order; each
    block is the operator's matrix times its table denominator, a row scaling
    that keeps kernels, ranks and solutions. Columns are indexed by (source
    monomial, spinor component) with the spinor index minor. The source
    monomials are ``monos`` in the given order, by default the whole
    ``_grade`` of the degree; each term reads its entries off its
    ``_lowering`` table. Returns (rows, ncols); rows with no entry are kept,
    so row ids stay positional.

    Each entry is written once, with nothing to add up: two terms x^c
    d/d(var) of one operator that sent a monomial to one target would have
    c - e_var equal, so one coefficient would contain its own variable, and
    such a term does not lower the degree.
    """
    shifts = []
    for op in ops:
        shift = op.weighted_shift()
        if shift >= 0:
            raise ValueError("operators must lower the weighted degree")
        shifts.append(shift)
    grade, index = _grade(vars, weighted_degree)
    if monos is None:
        monos = grade
    first_col = [None] * len(grade)  # by grade position: the monomial's first column
    for m_idx, exps in enumerate(monos):
        pos = index[exps]
        if first_col[pos] is not None:
            raise ValueError(f"monomial {exps} is listed twice")
        first_col[pos] = m_idx * spinor_dim
    rows = []
    for op, shift in zip(ops, shifts):
        target_deg = weighted_degree + shift
        if target_deg < 0:
            continue
        base_row = len(rows)
        rows += [{} for _ in range(len(_grade(vars, target_deg)[0]) * spinor_dim)]
        for var, cexp, cols in op._table:
            entries = [(mu, nu, a, b) for mu, column in enumerate(cols) for nu, (a, b) in column]
            for src, tgt, e in zip(*_lowering(vars, weighted_degree, var, cexp)):
                c0 = first_col[src]
                if c0 is None:
                    continue
                t_row = base_row + tgt * spinor_dim
                for mu, nu, a, b in entries:
                    rows[t_row + nu][c0 + mu] = (e * a, e * b)
    return rows, len(monos) * spinor_dim


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
    corank of the constraint rows. Their columns are assembled over the
    reversed ``_grade`` tuple, so elimination meets the monomials in
    descending order as ``int_kernel_rows`` does, which needs fewer row
    updates here; the corank does not depend on the column order."""
    monos = _grade(vars, weighted_degree)[0][::-1]
    rows, ncols = _constraint_rows(ops, vars, spinor_dim, weighted_degree, monos)
    return ncols - len(int_pivot_cols(rows))


def _as_poly(vars: VariableSet, spinor_dim: int, monos, vec) -> SpinorPoly:
    """The polynomial with coordinate vector ``vec`` over (monos, spinor)."""
    coeffs = {}
    for col, v in vec.items():
        m_idx, mu = divmod(col, spinor_dim)
        coeffs[(monos[m_idx], mu)] = v
    return SpinorPoly(vars, spinor_dim, coeffs)


def basis_polynomials(vars: VariableSet, spinor_dim: int, weighted_degree: int, basis):
    """Reconstruct SpinorPoly objects from solution-space coordinate vectors."""
    monos = _grade(vars, weighted_degree)[0]
    return [_as_poly(vars, spinor_dim, monos, vec) for vec in basis.vectors]


class SlotSystem:
    """The k-Dirac system of ``rep`` with k >= 2 slots. ``vars`` (and the
    V*-coordinates) are the matrix block x_{alpha i} of weight 1, alpha-major,
    then the (name, weight) pairs of ``extra``. Slot operator i is
    sum_alpha gamma_alpha F_{alpha i}, the field's terms read from the hook
    ``_field_terms``, which a subclass overrides. A subclass's ``prefix``
    names the system in failure messages, as in "e(3,2)".
    """

    def __init__(self, rep, k: int, extra=()):
        if k < 2:
            raise ValueError(f"k must be at least 2, got {k}")
        self.rep, self.n, self.k, self.s = rep, rep.n, k, rep.s
        names = [f"x_{a}_{i}" for a in range(1, self.n + 1) for i in range(1, k + 1)]
        weights = [1] * len(names) + [weight for _, weight in extra]
        self.vars = VariableSet.of(names + [name for name, _ in extra], weights)
        self.ops = [self._slot_op(i, range(1, self.n + 1)) for i in range(1, k + 1)]
        self._tableau = None
        self._spaces = {}
        self._completions = {}  # the memo of ``complete``

    def _field_terms(self, alpha: int, i: int, matrix):
        """Terms of the field F_{alpha i} followed by ``matrix``: d/dx_{alpha i}."""
        return [({self.vars.zero_exponents(): ONE}, self.var_index(alpha, i), matrix)]

    def _slot_op(self, i: int, alphas) -> DiffOp:
        """The operator sum over ``alphas`` of gamma_alpha F_{alpha i}."""
        gamma = self.rep.gamma
        return DiffOp(self.vars, self.s, [term for a in alphas
                                          for term in self._field_terms(a, i, gamma[a - 1])])

    @property
    def dim_V(self):
        return len(self.vars)

    def var_index(self, alpha: int, i: int) -> int:
        """0-based variable/coordinate index of x_{alpha i} (1-based labels)."""
        if not (1 <= alpha <= self.n and 1 <= i <= self.k):
            raise ValueError(f"matrix entry labels ({alpha}, {i}) out of range"
                             f" 1 <= alpha <= {self.n}, 1 <= i <= {self.k}")
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

    def complete(self, ops, base: SpinorPoly, key, degree: int, free, where: str,
                 unique: bool = False):
        """Complete the known part ``base`` to a joint solution of ``ops``.

        Finds h on the monomials of ``degree`` that ``free`` accepts with
        op(base + h) = 0 for every op, its non-pivot coordinates zero; ``base``
        may use only the other monomials of that degree. Returns (base + h,
        rank), rank being that of the coefficient block of the free monomials.

        The first call for ``key`` lists the monomials of the degree in
        ``_grade`` order, the free ones first, and reduces the
        coefficient matrix of ``ops`` over them into one :class:`RowFactor`,
        kept in ``_completions``; ``key`` must fix ops, degree and ``free``.
        Every call then maps ``base`` onto the data columns and makes one
        ``RowFactor.solve``. The caller vouches for a solution, so a base
        monomial that is free or of another degree, a missing h, a short rank
        when ``unique`` is set, or a result some op leaves nonzero raises
        InvariantViolation naming ``where``.
        """
        vars, s = base.vars, base.spinor_dim
        if key not in self._completions:
            grade = _grade(vars, degree)[0]
            unknown = [e for e in grade if free(e)]
            monos = unknown + [e for e in grade if not free(e)]
            rows, _ = _constraint_rows(ops, vars, s, degree, monos)
            data_col = {e: idx for idx, e in enumerate(monos) if idx >= len(unknown)}
            self._completions[key] = (monos, data_col, RowFactor(rows, len(unknown) * s))
        monos, data_col, factor = self._completions[key]
        x = {}
        for (e, mu), v in base.coeffs.items():
            if e not in data_col:
                raise InvariantViolation(
                    f"{where}: base monomial {e} is free or not of degree {degree}")
            x[data_col[e] * s + mu] = -v
        h = factor.solve(x)
        want = (len(monos) - len(data_col)) * s
        if h is None or (unique and factor.rank < want):
            what = "does not exist" if h is None else "is not unique"
            raise InvariantViolation(f"{where}: completion {what}: rank {factor.rank},"
                                     f" len(unknown) * s = {want}")
        psi = base + _as_poly(vars, s, monos, h)
        for slot, op in enumerate(ops, 1):
            if left := len(apply_op(op, psi).coeffs):
                raise InvariantViolation(
                    f"{where}: completion not annihilated, op {slot} leaves {left} terms")
        return psi, factor.rank
