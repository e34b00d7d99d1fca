"""The k-Dirac system on the extended space: n x k matrix coordinates x_{a i}
of weight 1 together with skew coordinates y_{rs} (r < s) of weight 2.

The slot operators replace each coordinate derivative by the left-invariant
field L_{a i} = d/dx_{a i} - 1/2 sum_j x_{a j} d_{i j}, where d_{i j} denotes
the signed derivative along y (d_{i j} = -d_{j i}, d_{i i} = 0). With this
index order the fields satisfy [L_{a i}, L_{b j}] = g_{a b} d_{i j}, which the
build verifies symbolically; the bracket test is what pins the sign and the
1/2 factor.

The symbol tableau lives in V* (x) Sp with V* the matrix block followed by
the skew block: the matrix part obeys the usual Clifford symbol relation and
the skew part is unconstrained. Prolongations are graded by the number of
skew indices, and the component decompositions below read that grading off
the prolongation bases.
"""

from math import comb

from .clifford import CliffordRep, build_spinor_rep
from .euclidean import EuclideanSystem, HALF, level1_ordering, require_monogenic
from .linalg import (
    ExactMatrix,
    GaussRational,
    InvariantViolation,
    SubspaceBasis,
    ZERO,
    _projected_ranks,
    kernel_rows,
    rank_rows,
)
from .polynomials import (
    DiffOp,
    SpinorPoly,
    VariableSet,
    apply_op,
    monomial_basis,
    scalar_multiply,
    solution_space,
    solve_correction,
)
from .tableau import (
    OrderedBasis,
    Tableau,
    cartan_test,
    expand_coefficients,
    prolong,
    search_ordering,
)


class ParabolicSystem:
    """Left-invariant fields and slot operators on the extended space."""

    def __init__(self, rep: CliffordRep):
        self.rep = rep
        self.params = rep.params
        n, k, s = rep.params.n, rep.params.k, rep.params.s
        self.y_pairs = [(r, t) for r in range(1, k + 1) for t in range(r + 1, k + 1)]
        names = [f"x_{a}_{i}" for a in range(1, n + 1) for i in range(1, k + 1)]
        names += [f"y_{r}_{t}" for r, t in self.y_pairs]
        weights = [1] * (n * k) + [2] * len(self.y_pairs)
        self.vars = VariableSet.of(names, weights)
        ident = ExactMatrix.identity(s)
        self.lfields = [
            DiffOp(self.vars, s, self._field_terms(a, i, ident))
            for a in range(1, n + 1)
            for i in range(1, k + 1)
        ]
        self.ops = [self._slot_op(i) for i in range(1, k + 1)]
        self._tableau = None
        self._euclidean = None
        self._spaces = {}
        self._factors = {}  # lift solves of the slot ops, see solve_correction

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
        return self.n * self.k + len(self.y_pairs)

    def x_index(self, alpha: int, i: int) -> int:
        return (alpha - 1) * self.k + (i - 1)

    def y_index(self, r: int, t: int) -> int:
        return self.n * self.k + self.y_pairs.index((r, t))

    def _zero_exp(self):
        return (0,) * len(self.vars)

    def _field_terms(self, alpha: int, i: int, matrix):
        """Terms of L_{alpha i} followed by ``matrix``: d/dx_{alpha i} and
        -1/2 sum_j x_{alpha j} d_{i j}, with the sign of the skew derivative
        resolved onto the stored coordinates y_{r t}, r < t."""
        terms = [({self._zero_exp(): GaussRational(1)}, self.x_index(alpha, i), matrix)]
        for j in range(1, self.k + 1):
            if j == i:
                continue
            exp = list(self._zero_exp())
            exp[self.x_index(alpha, j)] = 1
            if i < j:
                terms.append(({tuple(exp): -HALF}, self.y_index(i, j), matrix))
            else:
                terms.append(({tuple(exp): HALF}, self.y_index(j, i), matrix))
        return terms

    def _slot_op(self, i):
        """The slot operator sum_alpha gamma_alpha L_{alpha i}."""
        terms = []
        for alpha in range(1, self.n + 1):
            terms += self._field_terms(alpha, i, self.rep.gamma[alpha - 1])
        return DiffOp(self.vars, self.s, terms)

    def lfield(self, alpha: int, i: int) -> DiffOp:
        return self.lfields[(alpha - 1) * self.k + (i - 1)]

    def y_derivative(self, i: int, j: int) -> DiffOp:
        """The signed derivative d_{i j}; zero operator is refused (i = j)."""
        if i == j:
            raise ValueError("the skew derivative vanishes on the diagonal")
        one = {self._zero_exp(): GaussRational(1 if i < j else -1)}
        var = self.y_index(min(i, j), max(i, j))
        return DiffOp(self.vars, self.s, [(one, var, ExactMatrix.identity(self.s))])

    def euclidean(self) -> EuclideanSystem:
        if self._euclidean is None:
            self._euclidean = EuclideanSystem(self.rep)
        return self._euclidean

    def embed_euclidean_poly(self, psi: SpinorPoly) -> SpinorPoly:
        """Re-index a matrix-space polynomial over the extended variables."""
        pad = (0,) * len(self.y_pairs)
        coeffs = {(exps + pad, mu): v for (exps, mu), v in psi.coeffs.items()}
        return SpinorPoly(self.vars, self.s, coeffs)

    def euclidean_monogenic_embedded(self, degree: int):
        return [
            self.embed_euclidean_poly(p)
            for p in self.euclidean().monogenic_polynomials(degree)
        ]

    def weighted_monogenic_space(self, r: int) -> SubspaceBasis:
        if r not in self._spaces:
            self._spaces[r] = solution_space(self.ops, self.vars, self.s, r)
        return self._spaces[r]

    def tableau(self) -> Tableau:
        """Symbol tableau: matrix block constrained by the Clifford symbol,
        skew block free."""
        if self._tableau is None:
            rows = []
            for i in range(self.k):
                for nu in range(self.s):
                    row = {}
                    for alpha in range(self.n):
                        base = (alpha * self.k + i) * self.s
                        for (r, c), v in self.rep.gamma[alpha].entries.items():
                            if r == nu:
                                row[base + c] = v
                    rows.append(row)
            basis = kernel_rows(rows, self.dim_V * self.s)
            self._tableau = Tableau(self.dim_V, self.s, basis)
            self._tableau.system = f"p({self.n},{self.k})"
        return self._tableau


def build_parabolic(n: int, k: int) -> ParabolicSystem:
    """Build the system; the bracket identity and the tableau dimension are
    verified before returning."""
    sys = ParabolicSystem(build_spinor_rep(n, k))
    check_bracket_identity(sys, max_weighted_degree=2)
    expected = k * (n - 1) * sys.s + comb(k, 2) * sys.s
    got = sys.tableau().dim
    if got != expected:
        raise InvariantViolation(f"p({n},{k}) level 0: symbol tableau dimension "
                                 f"{got} != {expected} = k (n-1) s + C(k,2) s")
    return sys


def check_bracket_identity(sys: ParabolicSystem, max_weighted_degree: int) -> None:
    """Verify [L_{a i}, L_{b j}] = g_{a b} d_{i j} on every monomial spinor of
    weighted degree up to the bound. Raises InvariantViolation on failure."""
    n, k, s = sys.n, sys.k, sys.s
    probes = []
    for d in range(max_weighted_degree + 1):
        for exps in monomial_basis(sys.vars, d):
            probes.append(SpinorPoly.monomial(sys.vars, s, exps, 0))
    fields = [(a, i, sys.lfield(a, i)) for a in range(1, n + 1) for i in range(1, k + 1)]
    for idx, (a, i, la) in enumerate(fields):
        for b, j, lb in fields[idx:]:
            for p in probes:
                got = apply_op(la, apply_op(lb, p)) - apply_op(lb, apply_op(la, p))
                if a == b and i != j:
                    expected = apply_op(sys.y_derivative(i, j), p)
                else:
                    expected = SpinorPoly.zero(sys.vars, s)
                if got != expected:
                    raise InvariantViolation(
                        f"p({n},{k}): bracket identity fails for L_{a}{i}, L_{b}{j}"
                    )


# ---------------------------------------------------------------------------
# orderings and the Cartan suite
# ---------------------------------------------------------------------------


def parabolic_level0_ordering(sys: ParabolicSystem) -> OrderedBasis:
    """Matrix covectors with alpha < n first, then the skew covectors, then
    the alpha = n column block."""
    n, k = sys.n, sys.k
    order = [sys.x_index(a, i) for a in range(1, n) for i in range(1, k + 1)]
    order += [sys.y_index(r, t) for r, t in sys.y_pairs]
    order += [sys.x_index(n, i) for i in range(1, k + 1)]
    return OrderedBasis.permutation(order, "paper")


def parabolic_level1_ordering(sys: ParabolicSystem) -> OrderedBasis:
    """k = 2: the skew covector first, then the matrix-space chart ordering."""
    if sys.k != 2:
        raise ValueError("the built-in level-1 ordering exists only for k = 2")
    euclid_rows = level1_ordering(sys.euclidean()).change
    dim = sys.dim_V
    rows = [[0] * dim for _ in range(dim)]
    rows[0][sys.y_index(1, 2)] = GaussRational(1)
    for (r, c), v in euclid_rows.entries.items():
        rows[r + 1][c] = v
    return OrderedBasis.from_rows(rows, "paper")


def parabolic_cartan_suite(sys: ParabolicSystem, level0_ob=None, level1_ob=None):
    """Cartan reports for the symbol tableau and its first prolongation."""
    t0 = sys.tableau()
    if level0_ob is None:
        level0_ob = parabolic_level0_ordering(sys)
    report0 = cartan_test(t0, level0_ob)
    lifted = prolong(t0).lifted
    if level1_ob is None:
        if sys.k == 2:
            level1_ob = parabolic_level1_ordering(sys)
        else:
            level1_ob = search_ordering(lifted, "greedy")
    report1 = cartan_test(lifted, level1_ob)
    return report0, report1


def level0_rhs_formula(n: int, k: int, s: int) -> int:
    return s * comb(k * (n - 1) + comb(k, 2) + 1, 2)


def level0_prolongation_formula(n: int, k: int, s: int) -> int:
    return level0_rhs_formula(n, k, s) - s * comb(k, 2)


def level1_rhs_formula(n: int, s: int) -> int:
    """k = 2 closed form s (2n-1) (4 n^2 + 2 n - 6) / 6."""
    value = s * (2 * n - 1) * (4 * n * n + 2 * n - 6)
    if value % 6:
        raise InvariantViolation(
            f"level-1 rhs numerator s (2n-1) (4n^2+2n-6) = {value} is not divisible"
            f" by 6 (n = {n}, s = {s})"
        )
    return value // 6


# ---------------------------------------------------------------------------
# graded decompositions of the prolongations
# ---------------------------------------------------------------------------


def _grade_part(grade, ambient_dim, g):
    """The projection of a row onto the coordinates of grade g."""
    keep = {c for c in range(ambient_dim) if grade(c) == g}
    return lambda row: {c: v for c, v in row.items() if c in keep}


def parabolic_prolongation_decomposition(sys: ParabolicSystem):
    """Component dimensions of the first prolongation under the skew grading:
    (no skew index, one skew index, two skew indices). For k = 2 these are the
    quadratic matrix-space solutions, the skew copy of the tableau's matrix
    part, and the doubly-skew spinor block."""
    if sys.k != 2:
        raise ValueError("the decomposition is tabulated for k = 2 only")
    t0 = sys.tableau()
    p = prolong(t0)
    raw = p.raw
    nk = sys.n * sys.k
    dim_V, s = sys.dim_V, sys.s

    def grade(coord):
        pair, _w = divmod(coord, s)
        c1, c2 = divmod(pair, dim_V)
        return (c1 >= nk) + (c2 >= nk)

    dims = _projected_ranks(
        raw.rows, [_grade_part(grade, raw.ambient_dim, g) for g in (0, 1, 2)]
    )
    if sum(dims) != p.dim:
        raise InvariantViolation(
            f"p({sys.n},{sys.k}) level 1: graded split does not add up: "
            f"{' + '.join(map(str, dims))} != {p.dim} = dim A^(1)")
    return dims


def parabolic_second_decomposition(sys: ParabolicSystem):
    """Skew-grading split of the second prolongation (grades 0..3)."""
    if sys.k != 2:
        raise ValueError("the decomposition is tabulated for k = 2 only")
    t0 = sys.tableau()
    p1 = prolong(t0)
    p2 = prolong(p1.lifted)
    nk = sys.n * sys.k
    dim_V, s = sys.dim_V, sys.s
    expanded = expand_coefficients(
        expand_coefficients(p2.lifted.basis.rows, p1.lifted), t0
    )

    def grade(coord):
        triplet, _w = divmod(coord, s)
        pair, kV = divmod(triplet, dim_V)
        iV, jV = divmod(pair, dim_V)
        return (iV >= nk) + (jV >= nk) + (kV >= nk)

    ambient = dim_V**3 * s
    dims = _projected_ranks(
        expanded, [_grade_part(grade, ambient, g) for g in (0, 1, 2, 3)]
    )
    if sum(dims) != p2.dim:
        raise InvariantViolation(
            f"p({sys.n},{sys.k}) level 2: graded split does not add up: "
            f"{' + '.join(map(str, dims))} != {p2.dim} = dim A^(2)")
    return dims


# ---------------------------------------------------------------------------
# weighted solution slices and the lift of matrix-space solutions
# ---------------------------------------------------------------------------


def y_free_dim(sys: ParabolicSystem, r: int) -> int:
    """Dimension of the y-independent part of the weighted-degree-r slice."""
    basis = sys.weighted_monogenic_space(r)
    nk, s = sys.n * sys.k, sys.s
    y_cols = {
        idx * s + mu
        for idx, exps in enumerate(monomial_basis(sys.vars, r))
        if any(exps[nk:])
        for mu in range(s)
    }
    (rank,) = _projected_ranks(
        basis.rows, [lambda row: {c: v for c, v in row.items() if c in y_cols}]
    )
    return basis.dim - rank


def _validate_lift_inputs(sys, psi, g):
    if psi.vars != sys.vars or psi.spinor_dim != sys.s:
        raise ValueError("the seed spinor must live on the extended variables")
    nk = sys.n * sys.k
    for (exps, _mu) in psi.coeffs:
        if any(exps[nk:]):
            raise ValueError("the seed spinor must not involve y-variables")
    for op in sys.ops:
        if not apply_op(op, psi).is_zero():
            raise ValueError("the seed spinor is not monogenic")
    ydegs = set()
    for exps in g:
        if any(exps[:nk]):
            raise ValueError("g must be a polynomial in the y-variables only")
        ydegs.add(sum(exps[nk:]))
    if len(ydegs) > 1:
        raise ValueError("g must be homogeneous in the y-variables")
    degs = psi.weighted_degrees()
    if len(degs) > 1:
        raise ValueError("the seed spinor must be homogeneous")
    r = degs.pop() if degs else 0
    l = ydegs.pop() if ydegs else 0
    return r, l


def lift_check(sys: ParabolicSystem, psi: SpinorPoly, g) -> SpinorPoly:
    """Produce a solution of the extended system of the form g psi + lower
    order, where "lower order" means y-degree strictly below that of g.

    ``g`` is a scalar polynomial in the y-variables (mapping exponent tuples
    over the extended variable set to coefficients). Existence is guaranteed;
    failure of the solve raises InvariantViolation. The constraint matrix is
    factored once per system, seed degree and y-degree of g (kept on the
    system). The returned spinor is re-checked against every slot operator.
    """
    r, l = _validate_lift_inputs(sys, psi, g)
    base = scalar_multiply(g, psi)
    if l == 0:
        return base
    nk = sys.n * sys.k
    unknown = [
        e for e in monomial_basis(sys.vars, r + 2 * l) if sum(e[nk:]) < l
    ]
    h, rank = solve_correction(sys.ops, base, unknown, sys._factors)
    where = f"p({sys.n},{sys.k}) seed degree {r}, y-degree {l}"
    if h is None:
        raise InvariantViolation(f"{where}: no lift with leading term g psi: rank "
                                 f"{rank}, len(unknown) * s = {len(unknown) * sys.s}")
    return require_monogenic(sys.ops, base + h, where)


def y_monomial(sys: ParabolicSystem, r: int, t: int, power: int = 1):
    """The scalar polynomial (y_{r t})^power as a lift seed."""
    exp = [0] * len(sys.vars)
    exp[sys.y_index(r, t)] = power
    return {tuple(exp): GaussRational(1)}


def constant_poly(sys: ParabolicSystem):
    return {(0,) * len(sys.vars): GaussRational(1)}


# ---------------------------------------------------------------------------
# the second-jet fibre golden value
# ---------------------------------------------------------------------------


def two_jet_fiber_dim(sys: ParabolicSystem) -> int:
    """Dimension of the linear space cut out by the second-jet bracket
    relation: symmetric variables A over matrix slots with alpha >= 2 and a
    skew block v, subject to
        sum_{alpha,beta>=2} [gamma_alpha, gamma_beta] A_{(alpha i)(beta j)}
            = (2 - n) v_{j i}.
    The value is recorded as a regression number; the normalisation constant
    itself is not asserted against anything else.
    """
    n, k, s = sys.n, sys.k, sys.s
    slots = [(a, i) for a in range(2, n + 1) for i in range(1, k + 1)]
    slot_idx = {p: i for i, p in enumerate(slots)}
    pairs = []
    pair_idx = {}
    for p in range(len(slots)):
        for q in range(p, len(slots)):
            pair_idx[(p, q)] = len(pairs)
            pairs.append((p, q))
    a_cols = len(pairs) * s
    v_pairs = sys.y_pairs
    ncols = a_cols + len(v_pairs) * s

    brackets = {}
    for a in range(2, n + 1):
        for b in range(2, n + 1):
            if a == b:
                continue
            ga, gb = sys.rep.gamma[a - 1], sys.rep.gamma[b - 1]
            m = ga.matmul(gb) + gb.matmul(ga).scaled(GaussRational(-1))
            if not m.is_zero():
                brackets[(a, b)] = m

    rows = []
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            for mu in range(s):
                row = {}
                for (a, b), m in brackets.items():
                    for (rr, cc), val in m.entries.items():
                        if rr != mu:
                            continue
                        p = slot_idx[(a, i)]
                        q = slot_idx[(b, j)]
                        col = pair_idx[(p, q) if p <= q else (q, p)] * s + cc
                        row[col] = row.get(col, ZERO) + val
                if i != j:
                    sign = 1 if j < i else -1
                    vp = v_pairs.index((j, i) if j < i else (i, j))
                    col = a_cols + vp * s + mu
                    row[col] = row.get(col, ZERO) + sign * (n - 2)
                rows.append({c: v for c, v in row.items() if v})
    return ncols - rank_rows(rows)
