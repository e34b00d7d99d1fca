"""The k-Dirac system on the extended space: n x k matrix coordinates x_{a i}
of weight 1 together with skew coordinates y_{rs} (r < s) of weight 2.

The slot operators replace each coordinate derivative by the left-invariant
field L_{a i} = d/dx_{a i} - 1/2 sum_j x_{a j} d_{i j}, where d_{i j} denotes
the signed derivative along y (d_{i j} = -d_{j i}, d_{i i} = 0). With this
index order the fields satisfy [L_{a i}, L_{b j}] = g_{a b} d_{i j}, which the
build verifies symbolically; the bracket test is what pins the sign and the
1/2 factor. Each field is a derivation of the polynomial ring (first order,
no zeroth-order term) tensored with the identity on spinors, and so is
d_{i j}. The bracket of two derivations is again a derivation, and a
derivation is fixed by its values on the coordinates. So the check confirms
that each field acts on every spinor slot by one scalar, then compares both
sides on the coordinates x_{a i}, y_{r t} alone, in Gaussian integers read
off the term tables; that proves the identity on every polynomial spinor.

The symbol tableau and the weighted solution slices come from
:class:`~kdirac.polynomials.SlotSystem`. The tableau lives in V* (x) Sp with
V* the matrix block followed by the skew block: the matrix part obeys the
usual Clifford symbol relation and, since the y-derivatives enter only with
the coefficients x_{a j}, the skew part is unconstrained. Prolongations are
graded by the number of skew indices, and the graded split below reads that
grading off the columns of the prolongation's symmetric tensors.
"""

from itertools import product
from math import comb

from .clifford import CliffordRep, build_spinor_rep
from .euclidean import EuclideanSystem, HALF, level1_ordering
from .linalg import (
    ExactMatrix,
    GaussRational,
    InvariantViolation,
    _projected_ranks,
    _rationals,
)
from .polynomials import (
    DiffOp,
    SlotSystem,
    SpinorPoly,
    _grade,
    _lowered,
    _require_exponents,
    apply_op,
    scalar_multiply,
)
from .tableau import OrderedBasis, cartan_test, multisets, prolong, search_ordering, tensors


class ParabolicSystem(SlotSystem):
    """The k-Dirac system on the extended space: the y_{r t} follow the matrix
    block with weight 2, and the field is L_{alpha i} (``lfields``, in
    ``var_index`` order). Its ``complete`` memo holds the lifts, keyed by
    (seed degree, y-degree of g)."""

    prefix = "p"
    _euclidean = None  # the matrix-space system, built on first use by euclidean

    def __init__(self, rep: CliffordRep, k: int):
        self.y_pairs = [(r, t) for r in range(1, k + 1) for t in range(r + 1, k + 1)]
        super().__init__(rep, k, [(f"y_{r}_{t}", 2) for r, t in self.y_pairs])
        ident = ExactMatrix.identity(self.s)
        self.lfields = [DiffOp(self.vars, self.s, self._field_terms(a, i, ident))
                        for a in range(1, self.n + 1) for i in range(1, k + 1)]

    def y_index(self, r: int, t: int) -> int:
        """0-based coordinate index of y_{r t} (1-based labels)."""
        if not 1 <= r < t <= self.k:
            raise ValueError(f"skew labels ({r}, {t}) out of range 1 <= r < t <= {self.k}")
        return self.n * self.k + self.y_pairs.index((r, t))

    def _field_terms(self, alpha: int, i: int, matrix):
        """Terms of L_{alpha i} followed by ``matrix``: d/dx_{alpha i} and
        -1/2 sum_j x_{alpha j} d_{i j}, with the sign of the skew derivative
        resolved onto the stored coordinates y_{r t}, r < t."""
        terms = super()._field_terms(alpha, i, matrix)
        for j in range(1, self.k + 1):
            if j != i:
                exp = list(self.vars.zero_exponents())
                exp[self.var_index(alpha, j)] = 1
                terms.append(({tuple(exp): -HALF if i < j else HALF},
                              self.y_index(min(i, j), max(i, j)), matrix))
        return terms

    def lfield(self, alpha: int, i: int) -> DiffOp:
        return self.lfields[self.var_index(alpha, i)]

    def y_derivative(self, i: int, j: int) -> DiffOp:
        """The signed derivative d_{i j}; zero operator is refused (i = j)."""
        if i == j:
            raise ValueError("the skew derivative vanishes on the diagonal")
        one = {self.vars.zero_exponents(): GaussRational(1 if i < j else -1)}
        var = self.y_index(min(i, j), max(i, j))
        return DiffOp(self.vars, self.s, [(one, var, ExactMatrix.identity(self.s))])

    def euclidean(self) -> EuclideanSystem:
        if self._euclidean is None:
            self._euclidean = EuclideanSystem(self.rep, self.k)
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


def build_parabolic(n: int, k: int) -> ParabolicSystem:
    """Build the system; the bracket identity and the tableau dimension are
    verified before returning."""
    sys = ParabolicSystem(build_spinor_rep(n), k)
    check_bracket_identity(sys)
    expected = k * (n - 1) * sys.s + comb(k, 2) * sys.s
    got = sys.tableau().dim
    if got != expected:
        raise InvariantViolation(f"p({n},{k}) level 0: symbol tableau dimension "
                                 f"{got} != {expected} = k (n-1) s + C(k,2) s")
    return sys


def check_bracket_identity(sys: ParabolicSystem) -> None:
    """Verify [L_{a i}, L_{b j}] = g_{a b} d_{i j} on every polynomial spinor.

    First each field must act on every spinor slot by one scalar: each entry
    of its term table maps slot mu to slot mu alone, with one coefficient for
    all mu. A field is then a derivation D = sum_v c_v d/dx_v tensored with
    the identity, and so is d_{i j}. The bracket of two derivations is a
    derivation, fixed by its values on the coordinates x_v: there it is
    D_1(c_{2,v}) - D_2(c_{1,v}), to compare with g_{a b} d_{i j}(x_v). Both
    are computed in Gaussian integers off the term tables, over their
    denominators, with no spinor polynomial built. Raises InvariantViolation
    naming the system, the two fields, the probe x_v and both values.
    """
    n, k, nvars = sys.n, sys.k, len(sys.vars)

    def derivation(op, name):  # its terms (var, cexp, c) and c_v by v, over op._den
        terms, coeffs = [], [{} for _ in range(nvars)]
        for var, cexp, cols in op._table:
            c = cols[0][0][1] if cols[0] else None
            if any(col != [(mu, c)] for mu, col in enumerate(cols)):
                raise InvariantViolation(
                    f"p({n},{k}): {name} does not act on every spinor slot by one scalar")
            terms.append((var, cexp, c))
            coeffs[var][cexp] = c
        return terms, coeffs, op._den

    def derive(terms, poly, scale, out):  # out += scale * D(poly)
        for (var, cexp, (ca, cb)), (exps, (a, b)) in product(terms, poly.items()):
            if e := exps[var] * scale:
                key = _lowered(exps, var, cexp)
                re, im = out.get(key, (0, 0))
                out[key] = (re + e * (ca * a - cb * b), im + e * (ca * b + cb * a))

    fields = {(a, i): derivation(sys.lfield(a, i), f"L_{a}{i}")
              for a in range(1, n + 1) for i in range(1, k + 1)}
    skew = {(i, j): derivation(sys.y_derivative(i, j), f"d_{i}{j}")
            for i, j in product(range(1, k + 1), repeat=2) if i != j}
    order = list(fields)
    for idx, (a, i) in enumerate(order):
        for b, j in order[idx + 1:]:
            (t1, c1, den1), (t2, c2, den2) = fields[a, i], fields[b, j]
            _, cd, dden = skew[i, j] if a == b else ((), [{}] * nvars, 1)
            for v in range(nvars):
                if not (c1[v] or c2[v] or cd[v]):
                    continue
                got, want = {}, cd[v]
                derive(t1, c2[v], dden, got)
                derive(t2, c1[v], -dden, got)
                got = {e: x for e, x in got.items() if x != (0, 0)}
                if got != {e: (x * den1 * den2, y * den1 * den2) for e, (x, y) in want.items()}:
                    raise InvariantViolation(
                        f"p({n},{k}): bracket [L_{a}{i}, L_{b}{j}] = g_{a}{b} d_{i}{j}"
                        f" fails on the probe {sys.vars.names[v]}: got"
                        f" {_show(sys.vars, got, den1 * den2 * dden)},"
                        f" expected {_show(sys.vars, want, dden)}")


def _show(vars, poly: dict, den: int) -> str:
    """The terms of the polynomial poly / den in spinor slot 0, as
    coefficient, monomial and slot."""
    terms = []
    for e, v in sorted(_rationals(poly, den).items()):
        mono = "*".join(vars.names[c] + (f"^{p}" if p > 1 else "") for c, p in enumerate(e) if p)
        terms.append(f"({v}) {mono or '1'} e0")
    return " + ".join(terms) or "0"


# ---------------------------------------------------------------------------
# orderings and the Cartan suite
# ---------------------------------------------------------------------------


def parabolic_level0_ordering(sys: ParabolicSystem) -> OrderedBasis:
    """Matrix covectors with alpha < n first, then the skew covectors, then
    the alpha = n column block."""
    n, k, nvars = sys.n, sys.k, len(sys.vars)
    order = [sys.var_index(a, i) for a in range(1, n) for i in range(1, k + 1)]
    order += [sys.y_index(r, t) for r, t in sys.y_pairs]
    order += [sys.var_index(n, i) for i in range(1, k + 1)]
    return OrderedBasis.permutation(order, "paper")


def parabolic_level1_ordering(sys: ParabolicSystem) -> OrderedBasis:
    """k = 2: the skew covector first, then the matrix-space chart ordering."""
    if sys.k != 2:
        raise ValueError("the built-in level-1 ordering exists only for k = 2")
    return OrderedBasis([{sys.y_index(1, 2): (1, 0)}, *level1_ordering(sys.euclidean()).rows],
                        "paper")


def parabolic_cartan_suite(sys: ParabolicSystem):
    """Cartan reports for the symbol tableau under the paper level-0 flag and
    its first prolongation under the paper level-1 flag (k = 2) or the greedy
    one."""
    t0 = sys.tableau()
    report0 = cartan_test(t0, parabolic_level0_ordering(sys))
    lifted = prolong(t0).lifted
    flag = parabolic_level1_ordering(sys) if sys.k == 2 else search_ordering(lifted, "greedy")
    return report0, cartan_test(lifted, flag)


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


def parabolic_prolongation_decomposition(sys: ParabolicSystem, level: int = 1):
    """Component dimensions of A^(level) under the skew grading: the ranks of
    its symmetric tensors projected onto the columns whose multiset holds 0,
    1, ..., level + 1 skew indices. For k = 2 at level 1 these are the
    quadratic matrix-space solutions, the skew copy of the tableau's matrix
    part, and the doubly-skew spinor block."""
    if sys.k != 2:
        raise ValueError("the decomposition is tabulated for k = 2 only")
    if level < 0:
        raise ValueError("the prolongation level must be nonnegative")
    rows = tensors(sys.tableau(), level)
    nk = sys.n * sys.k
    grade = [sum(c >= nk for c in m)
             for m in multisets(sys.dim_V, level + 1) for _w in range(sys.s)]
    dims = _projected_ranks(rows, [
        lambda row, g=g: {c: v for c, v in row.items() if grade[c] == g}
        for g in range(level + 2)
    ])
    if sum(dims) != len(rows):
        raise InvariantViolation(
            f"p({sys.n},{sys.k}) level {level}: graded split does not add up: "
            f"{' + '.join(map(str, dims))} != {len(rows)} = dim A^({level})")
    return dims


# ---------------------------------------------------------------------------
# weighted solution slices and the lift of matrix-space solutions
# ---------------------------------------------------------------------------


def y_free_dim(sys: ParabolicSystem, r: int) -> int:
    """Dimension of the y-independent part of the weighted-degree-r slice."""
    basis = sys.monogenic_space(r)
    nk, s = sys.n * sys.k, sys.s
    y_cols = {
        idx * s + mu
        for idx, exps in enumerate(_grade(sys.vars, r)[0])
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
        _require_exponents("scalar", exps, sys.vars)
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
    failure of the solve raises InvariantViolation. ``SlotSystem.complete``
    solves for the lower-order part on the monomials of y-degree below l,
    keyed by (r, l): one datum costs the input checks, the product g psi, one
    solve and the re-check of the returned spinor against every slot operator.
    """
    r, l = _validate_lift_inputs(sys, psi, g)
    base = scalar_multiply(g, psi)
    if l == 0:
        return base
    nk = sys.n * sys.k
    lifted, _ = sys.complete(sys.ops, base, (r, l), r + 2 * l, lambda e: sum(e[nk:]) < l,
                             f"p({sys.n},{sys.k}) seed degree {r}, y-degree {l}")
    return lifted


def y_monomial(sys: ParabolicSystem, r: int, t: int, power: int = 1):
    """The scalar polynomial (y_{r t})^power as a lift seed."""
    exp = [0] * len(sys.vars)
    exp[sys.y_index(r, t)] = power
    return {tuple(exp): GaussRational(1)}
