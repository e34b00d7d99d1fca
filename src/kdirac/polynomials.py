"""Spinor-valued polynomials and first-order operators with polynomial
coefficients.

Variables carry positive integer weights (weight 1 for matrix coordinates,
weight 2 for the skew coordinates of the extended space), monomials are graded
by the weighted degree and enumerated in a fixed order, so every coefficient
matrix built here is reproducible entry for entry.

A differential operator is a sum of terms (coefficient polynomial) *
(coordinate derivative) * (spinor matrix). Homogeneous operators shift the
weighted degree by a fixed amount; ``solution_space`` exploits that to reduce
"all weighted-degree-r solutions" to one exact kernel computation.
"""

from dataclasses import dataclass
from typing import Mapping, Sequence

from .linalg import (
    ExactMatrix,
    GaussRational,
    RowFactor,
    SubspaceBasis,
    ZERO,
    kernel_rows,
    rank_rows,
)

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
            cur = acc.get(key)
            s = v if cur is None else cur + v
            if s:
                acc[key] = s
            elif cur is not None:
                del acc[key]
        return SpinorPoly(self.vars, self.spinor_dim, acc)

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
            cur = acc.get(key, ZERO) + pval * v
            if cur:
                acc[key] = cur
            elif key in acc:
                del acc[key]
    return SpinorPoly(psi.vars, psi.spinor_dim, acc)


class DiffOp:
    """First-order operator sum of (coefficient poly) * d/d(var) * (matrix).

    Coefficient polynomials are sparse maps exponent-tuple -> scalar; each
    matrix acts on the spinor index after differentiation and multiplication.
    """

    __slots__ = ("vars", "spinor_dim", "terms", "_term_data")

    def __init__(self, vars: VariableSet, spinor_dim: int, terms: Sequence):
        self.vars = vars
        self.spinor_dim = spinor_dim
        normalised = []
        data = []
        for coeff, var, matrix in terms:
            if not 0 <= var < len(vars):
                raise ValueError("derivative variable out of range")
            if matrix.rows != spinor_dim or matrix.cols != spinor_dim:
                raise ValueError("matrix size must match the spinor dimension")
            if matrix.is_zero():
                continue
            cleaned = {}
            for exps, v in coeff.items():
                if not isinstance(v, GaussRational):
                    v = GaussRational(v)
                if v:
                    cleaned[tuple(exps)] = v
            if not cleaned:
                continue
            normalised.append((cleaned, var, matrix))
            data.append((cleaned, var, matrix.column_maps()))
        self.terms = tuple(normalised)
        self._term_data = tuple(data)

    def weighted_shift(self) -> int:
        """The common weighted-degree shift of all terms.

        Raises ValueError when a coefficient is weighted-inhomogeneous or when
        two terms shift the grading differently.
        """
        shift = None
        for coeff, var, _ in self.terms:
            degs = {self.vars.weighted_degree(e) for e in coeff}
            if len(degs) > 1:
                raise ValueError("coefficient polynomial is not weighted homogeneous")
            term_shift = degs.pop() - self.vars.weights[var]
            if shift is None:
                shift = term_shift
            elif shift != term_shift:
                raise ValueError("operator mixes weighted-degree shifts")
        if shift is None:
            raise ValueError("empty operator has no defined shift")
        return shift


def apply_op(op: DiffOp, p: SpinorPoly) -> SpinorPoly:
    """Exact application: differentiate, multiply by the coefficient, then act
    on the spinor index. Linear in ``p``."""
    if op.vars != p.vars or op.spinor_dim != p.spinor_dim:
        raise ValueError("operator and polynomial live on different spaces")
    acc = {}
    for coeff, var, cols in op._term_data:
        for (exps, mu), v in p.coeffs.items():
            e = exps[var]
            if not e:
                continue
            column = cols[mu]
            if not column:
                continue
            base = list(exps)
            base[var] -= 1
            scaled = v * e
            for cexp, cval in coeff.items():
                shifted = tuple(a + b for a, b in zip(base, cexp))
                factor = scaled * cval
                for nu, mval in column:
                    key = (shifted, nu)
                    cur = acc.get(key, ZERO) + factor * mval
                    if cur:
                        acc[key] = cur
                    elif key in acc:
                        del acc[key]
    return SpinorPoly(p.vars, p.spinor_dim, acc)


def _constraint_rows(
    ops: Sequence[DiffOp],
    vars: VariableSet,
    spinor_dim: int,
    weighted_degree: int,
    monos=None,
):
    """Stacked coefficient matrix of the ops on the weighted-degree slice.

    Rows are indexed by (operator slot, target monomial, spinor component),
    columns by (source monomial, spinor component) with the spinor index
    minor. The source monomials are ``monos`` in the given order, by default
    the whole ``monomial_basis`` of the degree. Returns (rows, ncols).
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
    rows = {}
    for slot, (op, shift) in enumerate(zip(ops, shifts)):
        target_deg = weighted_degree + shift
        if target_deg < 0:
            continue
        targets = {e: i for i, e in enumerate(monomial_basis(vars, target_deg))}
        base_row = slot * len(targets) * spinor_dim
        for m_idx, exps in enumerate(monos):
            for coeff, var, cols in op._term_data:
                e = exps[var]
                if not e:
                    continue
                lowered = list(exps)
                lowered[var] -= 1
                for cexp, cval in coeff.items():
                    shifted = tuple(a + b for a, b in zip(lowered, cexp))
                    t_idx = targets[shifted]
                    factor = cval * e
                    for mu in range(spinor_dim):
                        col = m_idx * spinor_dim + mu
                        for nu, mval in cols[mu]:
                            rid = base_row + t_idx * spinor_dim + nu
                            row = rows.setdefault(rid, {})
                            cur = row.get(col, ZERO) + factor * mval
                            if cur:
                                row[col] = cur
                            elif col in row:
                                del row[col]
    return list(rows.values()), ncols


def solution_space(
    ops: Sequence[DiffOp], vars: VariableSet, spinor_dim: int, weighted_degree: int
) -> SubspaceBasis:
    """Canonical basis of the weighted-degree-homogeneous joint kernel.

    Coordinates pair (monomial, spinor component): monomials in the
    ``monomial_basis`` order, spinor index minor.
    """
    rows, ncols = _constraint_rows(ops, vars, spinor_dim, weighted_degree)
    return kernel_rows(rows, ncols)


def solution_dim(
    ops: Sequence[DiffOp], vars: VariableSet, spinor_dim: int, weighted_degree: int
) -> int:
    """Dimension of the solution slice without materialising a basis."""
    rows, ncols = _constraint_rows(ops, vars, spinor_dim, weighted_degree)
    return ncols - rank_rows(rows)


def solve_correction(
    ops: Sequence[DiffOp], base: SpinorPoly, unknown: Sequence, factors: dict
):
    """Complete a known homogeneous part to a joint solution of the ops.

    Finds ``h`` supported on the ``unknown`` monomials (exponent tuples of the
    weighted degree of ``base``) with op(base + h) = 0 for every op; ``base``
    may use only the other monomials of that degree. The coefficient matrix
    over all monomials of the degree, unknown ones first, is reduced once into
    a :class:`RowFactor` and ``base`` is one datum solved against it.
    ``factors`` is the caller's memo for this list of ops (a system keeps
    one): it holds the factor per degree and unknown monomials, so solving
    many data of one degree builds the factor once.

    Returns (h, rank): h is a particular solution (free coordinates zero) or
    None when none exists, and rank is that of the unknown block, so the
    solution is unique exactly when rank == len(unknown) * spinor_dim.
    """
    vars, s = base.vars, base.spinor_dim
    degrees = {vars.weighted_degree(e) for e in unknown} | base.weighted_degrees()
    skip = set(unknown)
    if len(degrees) != 1 or not skip.isdisjoint(e for e, _ in base.coeffs):
        raise ValueError("base and unknown monomials must be apart and of one degree")
    degree = degrees.pop()
    key = (degree, tuple(unknown))
    if key not in factors:
        monos = list(unknown)
        monos += [e for e in monomial_basis(vars, degree) if e not in skip]
        rows, _ = _constraint_rows(ops, vars, s, degree, monos)
        col_of = {e: idx for idx, e in enumerate(monos)}
        factors[key] = (monos, col_of, RowFactor(rows, len(unknown) * s))
    monos, col_of, factor = factors[key]
    h = factor.solve({col_of[e] * s + mu: -v for (e, mu), v in base.coeffs.items()})
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


def identity_matrix(spinor_dim: int) -> ExactMatrix:
    return ExactMatrix.identity(spinor_dim)
