"""The k-Dirac system on n x k matrix space: the slot operators, the
explicit basis orderings that witness involutivity for k = 2, the
initial-data extension solver, and the second-order restriction identity.
The symbol tableau and the monogenic solution slices come from
:class:`~kdirac.polynomials.SlotSystem`.

Variable and coordinate conventions, fixed once for reproducibility:

* the matrix entries x_{alpha i} are enumerated alpha-major / i-minor, and the
  same index ``(alpha-1)*k + (i-1)`` serves as the V*-coordinate of the
  covector dual to x_{alpha i};
* for k = 2 the affine chart t_1..t_{2n} mixes the last matrix row through
  (t_{2n-3} +- t_{2n-2}); initial data for the extension solver lives in
  t_1..t_{2n-3}.
"""

from functools import lru_cache
from math import comb

from .clifford import build_spinor_rep
from .linalg import GaussRational, InvariantViolation, _projected_ranks, to_int_rows
from .polynomials import (
    DiffOp,
    SlotSystem,
    SpinorPoly,
    VariableSet,
    apply_op,
    basis_polynomials,
    scalar_multiply,
)
from .tableau import OrderedBasis, multisets, tensors

HALF = GaussRational("1/2")


class EuclideanSystem(SlotSystem):
    """The k-Dirac system on n x k matrix space, with the default field
    d/dx_{alpha i}. Every coefficient is constant, so every term enters the
    symbol tableau. Its ``complete`` memo holds the chart operators'
    extensions, keyed by degree."""

    prefix = "e"
    _chart_ops = None  # built on first use by chart_ops

    def monogenic_polynomials(self, degree: int):
        return basis_polynomials(self.vars, self.s, degree, self.monogenic_space(degree))


def build_euclidean(n: int, k: int) -> EuclideanSystem:
    """Build the system and check the symbol-kernel dimension k s (n-1)."""
    sys = EuclideanSystem(build_spinor_rep(n), k)
    expected = k * sys.s * (n - 1)
    got = sys.tableau().dim
    if got != expected:
        raise InvariantViolation(f"e({n},{k}) level 0: symbol tableau dimension "
                                 f"{got} != {expected} = k s (n-1)")
    return sys


# ---------------------------------------------------------------------------
# basis orderings
# ---------------------------------------------------------------------------


def level0_ordering(sys: EuclideanSystem) -> OrderedBasis:
    """Covector order with all alpha < n slots first and the alpha = n column
    block last; in the alpha-major convention this is the identity."""
    return OrderedBasis.identity(sys.dim_V, label="paper")


def level1_ordering(sys: EuclideanSystem) -> OrderedBasis:
    """The hand-picked chart ordering for k = 2 (label "paper"): row j is
    dt_{j+1} in x-coordinates, scaled to integers. ``_chart_data`` gives
    d/dx_{alpha i} = sum_j c d/dt_j, so c is dt_j's entry at x_{alpha i}. The
    leading covectors t_1..t_{2n-3} carry the initial data; the trailing three
    are (e1 - e2) (x) eps_n, e2 (x) eps_{n-2} and e1 (x) eps_{n-1}.
    """
    if sys.k != 2:
        raise ValueError("the built-in level-1 ordering exists only for k = 2")
    vars, table = _chart_data(sys.n)
    rows = [{} for _ in range(len(vars))]
    for (a, i), terms in table.items():
        for j, coeff in terms:
            rows[j][sys.var_index(a, i)] = coeff
    return OrderedBasis([to_int_rows([row])[0] for row in rows], label="paper")


# ---------------------------------------------------------------------------
# closed forms and component split of the quadratic slice
# ---------------------------------------------------------------------------


def quadratic_dim_formula(n: int, k: int, s: int) -> int:
    return s * comb(k * (n - 1) + 1, 2) - s * comb(k, 2)


def cubic_dim_formula(n: int, s: int) -> int:
    """k = 2 only: s C(2n,3) - 2 s (n-1)."""
    return s * comb(2 * n, 3) - 2 * s * (n - 1)


def initial_dim_formula(n: int, r: int) -> int:
    """Degree-r solution count for k = 2 from free initial data: spinors of
    degree r and r-1 in the 2n-3 leading chart variables."""
    if r < 2:
        raise ValueError("the initial-data count applies for degree r >= 2")
    s = 1 << (n // 2)
    v = 2 * n - 4
    return s * (comb(r + v, v) + comb(r - 1 + v, v))


def quadratic_component_dims(sys: EuclideanSystem):
    """Split the quadratic slice into its symmetric-symmetric and
    skew-skew components inside S^2(E (x) F) (x) Sp.

    Projects the symmetric tensors of A^(1) onto both summands and returns
    the two ranks; their sum must reproduce the full dimension. The partner
    of the entry at {(a1,i1),(a2,i2)} is the one at {(a1,i2),(a2,i1)}. Each
    projection is taken times 2, which clears its 1/2 and keeps the rank.
    """
    k, s = sys.k, sys.s
    rows = tensors(sys.tableau(), 1)
    cols = multisets(sys.dim_V, 2)
    pos = {m: c for c, m in enumerate(cols)}
    swapped = []
    for c1, c2 in cols:
        (a1, i1), (a2, i2) = divmod(c1, k), divmod(c2, k)
        swapped.append(pos[tuple(sorted((a1 * k + i2, a2 * k + i1)))])

    def partner(coord):
        m, w = divmod(coord, s)
        return swapped[m] * s + w

    def part(sign):
        def image(row):
            out = {}
            for c in set(row).union(map(partner, row)):
                (a, b), (pa, pb) = row.get(c, (0, 0)), row.get(partner(c), (0, 0))
                if a + sign * pa or b + sign * pb:
                    out[c] = (a + sign * pa, b + sign * pb)
            return out

        return image

    sym_dim, skew_dim = _projected_ranks(rows, (part(1), part(-1)))
    if sym_dim + skew_dim != len(rows):
        raise InvariantViolation(
            f"e({sys.n},{k}) level 1: component split does not add up: "
            f"{sym_dim} + {skew_dim} != {len(rows)} = dim A^(1)")
    return sym_dim, skew_dim


# ---------------------------------------------------------------------------
# the k = 2 chart, extension from initial data
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _chart_data(n: int):
    """Variable set t_1..t_{2n} and the expansion of each d/dx_{alpha i} in
    chart derivatives: (alpha, i) -> ((t-index, coefficient), ...)."""
    vars = VariableSet.of([f"t{j}" for j in range(1, 2 * n + 1)])
    table = {}
    for r in range(1, n - 1):
        table[(r, 1)] = ((2 * r - 2, GaussRational(1)),)
    for r in range(1, n - 2):
        table[(r, 2)] = ((2 * r - 1, GaussRational(1)),)
    table[(n - 2, 2)] = ((2 * n - 2, GaussRational(1)),)
    table[(n - 1, 2)] = ((2 * n - 5, GaussRational(1)),)
    table[(n - 1, 1)] = ((2 * n - 1, GaussRational(1)),)
    table[(n, 1)] = ((2 * n - 4, HALF), (2 * n - 3, HALF))
    table[(n, 2)] = ((2 * n - 4, HALF), (2 * n - 3, -HALF))
    return vars, table


def chart_vars(n: int) -> VariableSet:
    return _chart_data(n)[0]


def chart_ops(sys: EuclideanSystem):
    """The two slot operators in the chart variables (k = 2), built once per system."""
    if sys.k != 2:
        raise ValueError("the chart exists only for k = 2")
    if sys._chart_ops is not None:
        return sys._chart_ops
    vars, table = _chart_data(sys.n)
    one = {(0,) * (2 * sys.n): GaussRational(1)}
    ops = []
    for i in (1, 2):
        # chart coefficients folded into the matrices, coefficient polys stay 1
        terms = [
            (one, tidx, sys.rep.gamma[a - 1].scaled(coeff))
            for a in range(1, sys.n + 1)
            for tidx, coeff in table[(a, i)]
        ]
        ops.append(DiffOp(vars, sys.s, terms))
    sys._chart_ops = tuple(ops)
    return sys._chart_ops


def _homogeneous_degree(p: SpinorPoly):
    degs = p.weighted_degrees()
    if len(degs) > 1:
        raise ValueError("polynomial is not homogeneous")
    return degs.pop() if degs else None


def extend_from_initial_data(
    sys: EuclideanSystem, g1: SpinorPoly, g2: SpinorPoly
) -> SpinorPoly:
    """Unique monogenic extension of chart initial data (k = 2).

    ``g1`` (degree r >= 2) and ``g2`` (degree r-1) may only use the leading
    chart variables t_1..t_{2n-3}. The result is g1 + t_{2n-2} g2 + g where g
    collects every remaining degree-r monomial class (at least quadratic in
    the trailing three chart variables, or linear in t_{2n-1} or t_{2n});
    restricting a solution to the leading variables recovers g1 and its
    t_{2n-2}-linear part recovers g2. Solvability and uniqueness are
    guaranteed by the theory, so their failure raises InvariantViolation.
    ``SlotSystem.complete`` solves for g with the chart operators, keyed by
    the degree r: one datum costs one solve and the monogenic check.
    """
    if sys.k != 2:
        raise ValueError("initial-data extension applies to k = 2 only")
    n = sys.n
    vars = chart_vars(n)
    s = sys.s
    for g in (g1, g2):
        if g.vars != vars or g.spinor_dim != s:
            raise ValueError("initial data must live on the chart variables")
    trailing = (2 * n - 3, 2 * n - 2, 2 * n - 1)
    for g in (g1, g2):
        for (exps, _mu) in g.coeffs:
            if any(exps[t] for t in trailing):
                raise ValueError("initial data may use only t_1..t_{2n-3}")
    d1 = _homogeneous_degree(g1)
    d2 = _homogeneous_degree(g2)
    if d1 is None and d2 is None:
        return SpinorPoly.zero(vars, s)
    r = d1 if d1 is not None else d2 + 1
    if r < 2:
        raise ValueError("initial data must have degree at least 2")
    if d1 not in (None, r) or d2 not in (None, r - 1):
        raise ValueError("initial data degrees must be r and r-1")

    lift = {tuple(1 if i == 2 * n - 3 else 0 for i in range(2 * n)): GaussRational(1)}

    def free(e):  # not data: the data monomials are those of g1 and t_{2n-2} g2
        tdeg = sum(e[t] for t in trailing)
        return not (tdeg == 0 or (tdeg == 1 and e[2 * n - 3] == 1))

    base = g1 + scalar_multiply(lift, g2)
    psi, _ = sys.complete(chart_ops(sys), base, r, r, free, f"e({n},2) degree {r}",
                          unique=True)
    return psi


# ---------------------------------------------------------------------------
# restriction identity
# ---------------------------------------------------------------------------


def restriction_commutator_check(sys: EuclideanSystem, psi: SpinorPoly) -> bool:
    """Restrict a monogenic spinor to the hyperplane x_{1 i} = 0 and test the
    second-order commutator identity of the truncated slot operators."""
    if psi.vars != sys.vars or psi.spinor_dim != sys.s:
        raise ValueError("polynomial does not live on this system")
    for op in sys.ops:
        if not apply_op(op, psi).is_zero():
            raise ValueError("input spinor is not monogenic")
    n, k = sys.n, sys.k
    restricted = psi.substitute_zero([sys.var_index(1, i) for i in range(1, k + 1)])
    truncated = [sys._slot_op(i, range(2, n + 1)) for i in range(1, k + 1)]
    for i in range(k):
        for j in range(i + 1, k):
            forward = apply_op(truncated[i], apply_op(truncated[j], restricted))
            backward = apply_op(truncated[j], apply_op(truncated[i], restricted))
            if forward != backward:
                return False
    return True
