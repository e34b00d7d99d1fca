"""Checks of the benchmark's outputs, made apart from ``kdirac``.

Three kinds of check live here:

* closed forms of the paper, written out again with ``math.comb`` rather than
  imported from the package under test;
* properties every Cartan report must have under any flag (characters sum to
  dim A, rhs is the weighted character sum and bounds dim A^(1) from above);
* an independent application of the first-order operators, with its own
  polynomial differentiation over pairs of Fractions, to test that extensions
  and lifts are monogenic, plus a rank over a prime field to test that the
  results for a basis of data are linearly independent.

Every check returns a list of problems; an empty list means the output is
correct. The harness counts an operation as failed when its list is not empty.
"""

from fractions import Fraction
from math import comb


def spinor_dim(n):
    return 1 << (n // 2)


# ---------------------------------------------------------------------------
# closed forms (Euclidean system e(n,k), parabolic system p(n,k))
# ---------------------------------------------------------------------------


def e_level0(n, k):
    """Level 0 of e(n,k): tableau dimension, characters, rhs, dim A^(1)."""
    s = spinor_dim(n)
    rhs = s * comb(k * (n - 1) + 1, 2)
    return {
        "dim": k * s * (n - 1),
        "characters": (s,) * (k * (n - 1)) + (0,) * k,
        "rhs": rhs,
        "dim_prolongation": rhs - s * comb(k, 2),
    }


def e_level1_k2(n):
    """Level 1 of e(n,2) under the paper flag, which certifies involutivity."""
    s = spinor_dim(n)
    cubic = s * comb(2 * n, 3) - 2 * s * (n - 1)
    return {
        "dim": e_level0(n, 2)["dim_prolongation"],
        "characters": tuple((2 * n - 1 - j) * s for j in range(1, 2 * n - 2)) + (0, 0, 0),
        "rhs": cubic,
        "dim_prolongation": cubic,
    }


def p_level0(n, k):
    s = spinor_dim(n)
    free = k * (n - 1) + comb(k, 2)
    rhs = s * comb(free + 1, 2)
    return {
        "dim": free * s,
        "characters": (s,) * free + (0,) * k,
        "rhs": rhs,
        "dim_prolongation": rhs - s * comb(k, 2),
    }


def p_level1_k2(n):
    s = spinor_dim(n)
    value = s * (2 * n - 1) * (4 * n * n + 2 * n - 6) // 6
    return {
        "dim": p_level0(n, 2)["dim_prolongation"],
        "rhs": value,
        "dim_prolongation": value,
    }


def p_graded_split_k2(n):
    """(no skew index, one skew index, two skew indices) of p(n,2)'s A^(1)."""
    s = spinor_dim(n)
    return (s * comb(2 * n - 1, 2) - s, 2 * s * (n - 1), s)


def initial_dim_k2(n, r):
    """Number of chart initial data of degree r for e(n,2)."""
    v = 2 * n - 4
    return spinor_dim(n) * (comb(r + v, v) + comb(r - 1 + v, v))


# ---------------------------------------------------------------------------
# Cartan reports
# ---------------------------------------------------------------------------


def check_report(report, dim, dim_prolongation, characters=None, rhs=None,
                 involutive=None, rhs_floor=None):
    """Compare a CartanReport with independently known values.

    ``rhs_floor`` is the rhs of a flag that certified involutivity: no flag
    may give a smaller one. ``involutive=False`` states that no flag reaches
    equality (level 0).
    """
    out = []
    chars = tuple(report.characters)
    if report.dim_tableau != dim:
        out.append(f"dim A = {report.dim_tableau}, expected {dim}")
    if sum(chars) != report.dim_tableau:
        out.append(f"characters sum to {sum(chars)}, not dim A = {report.dim_tableau}")
    weighted = sum(j * c for j, c in enumerate(chars, start=1))
    if report.rhs_cartan_test != weighted:
        out.append(f"rhs {report.rhs_cartan_test} != weighted character sum {weighted}")
    if report.dim_prolongation != dim_prolongation:
        out.append(f"dim A^(1) = {report.dim_prolongation}, expected {dim_prolongation}")
    if report.rhs_cartan_test < report.dim_prolongation:
        out.append(f"rhs {report.rhs_cartan_test} < dim A^(1) {report.dim_prolongation}")
    if characters is not None and chars != tuple(characters):
        out.append(f"characters {chars}, expected {tuple(characters)}")
    if rhs is not None and report.rhs_cartan_test != rhs:
        out.append(f"rhs {report.rhs_cartan_test}, expected {rhs}")
    if rhs_floor is not None and report.rhs_cartan_test < rhs_floor:
        out.append(f"rhs {report.rhs_cartan_test} below certified rhs {rhs_floor}")
    if report.involutive != (report.rhs_cartan_test == report.dim_prolongation):
        out.append("involutive flag disagrees with rhs == dim A^(1)")
    if involutive is not None and report.involutive != involutive:
        out.append(f"verdict involutive={report.involutive}, expected {involutive}")
    return out


def check_equal(name, got, expected):
    return [] if got == expected else [f"{name} = {got}, expected {expected}"]


# ---------------------------------------------------------------------------
# exact complex scalars as (re, im) Fraction pairs, polynomials as dicts
# ---------------------------------------------------------------------------

_ZERO = (Fraction(0), Fraction(0))


def _mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _add_into(acc, key, val):
    cur = acc.get(key, _ZERO)
    new = (cur[0] + val[0], cur[1] + val[1])
    if new[0] or new[1]:
        acc[key] = new
    else:
        acc.pop(key, None)


def scalar(v):
    """(re, im) pair of a package scalar or a plain number."""
    if hasattr(v, "re"):
        return (Fraction(v.re), Fraction(v.im))
    return (Fraction(v), Fraction(0))


def plain(poly):
    """{(exponents, spinor index): (re, im)} of a SpinorPoly."""
    return {key: scalar(v) for key, v in poly.coeffs.items() if v}


def gamma_entries(rep):
    """Generator matrices as {(row, col): (re, im)} dicts."""
    return [{rc: scalar(v) for rc, v in g.entries.items()} for g in rep.gamma]


def clifford_problems(gammas, s):
    """g_a g_b + g_b g_a = -2 delta_ab on s x s matrices."""
    def matmul(a, b):
        out = {}
        for (r, c), v in a.items():
            for (r2, c2), w in b.items():
                if r2 == c:
                    _add_into(out, (r, c2), _mul(v, w))
        return out

    out = []
    for a, ga in enumerate(gammas):
        for b in range(a, len(gammas)):
            gb = gammas[b]
            anti = matmul(ga, gb)
            for key, v in matmul(gb, ga).items():
                _add_into(anti, key, v)
            want = {(i, i): (Fraction(-2), Fraction(0)) for i in range(s)} if a == b else {}
            if anti != want:
                out.append(f"Clifford relation fails for generators {a}, {b}")
    return out


def _apply(terms, poly):
    """Apply a sum of terms (x, var, c, matrix), each meaning
    c * x * d/d(var) followed by the matrix on the spinor index; x is the
    index of a variable to multiply by, or None for 1."""
    acc = {}
    for cexp, var, c, matrix in terms:
        for (exps, mu), v in poly.items():
            e = exps[var]
            if not e:
                continue
            lowered = list(exps)
            lowered[var] -= 1
            if cexp is not None:
                lowered[cexp] += 1
            shifted = tuple(lowered)
            factor = _mul(v, (c[0] * e, c[1] * e))
            for (nu, col), m in matrix.items():
                if col == mu:
                    _add_into(acc, (shifted, nu), _mul(factor, m))
    return acc


def chart_dirac_terms(n, gammas):
    """Slot operators D_i = sum_a g_a d/dx_{a i} of e(n,2) in the t-chart.

    The chart mixes the last matrix row through t_{2n-3} +- t_{2n-2}; each
    d/dx_{a i} is the chart derivative combination below (0-based t indices).
    """
    one, half = Fraction(1), Fraction(1, 2)
    table = {}
    for r in range(1, n - 1):
        table[(r, 1)] = [(2 * r - 2, one)]
    for r in range(1, n - 2):
        table[(r, 2)] = [(2 * r - 1, one)]
    table[(n - 2, 2)] = [(2 * n - 2, one)]
    table[(n - 1, 2)] = [(2 * n - 5, one)]
    table[(n - 1, 1)] = [(2 * n - 1, one)]
    table[(n, 1)] = [(2 * n - 4, half), (2 * n - 3, half)]
    table[(n, 2)] = [(2 * n - 4, half), (2 * n - 3, -half)]
    return [
        [(None, t, (c, Fraction(0)), gammas[a - 1])
         for a in range(1, n + 1) for t, c in table[(a, i)]]
        for i in (1, 2)
    ]


def parabolic_dirac_terms(n, k, gammas):
    """Slot operators D_i = sum_a g_a L_{a i} on the extended space, with
    L_{a i} = d/dx_{a i} - 1/2 sum_j x_{a j} d_{i j} and d_{i j} = -d_{j i}
    the derivative along y_{i j}. Variables: x_{a i} at (a-1)k + (i-1), then
    y_{r t} (r < t) in lexicographic order."""
    pairs = [(r, t) for r in range(1, k + 1) for t in range(r + 1, k + 1)]
    y_index = {p: n * k + j for j, p in enumerate(pairs)}
    half = Fraction(1, 2)
    ops = []
    for i in range(1, k + 1):
        terms = []
        for a in range(1, n + 1):
            g = gammas[a - 1]
            terms.append((None, (a - 1) * k + (i - 1), (Fraction(1), Fraction(0)), g))
            for j in range(1, k + 1):
                if j == i:
                    continue
                sign = -half if i < j else half
                y = y_index[(min(i, j), max(i, j))]
                terms.append(((a - 1) * k + (j - 1), y, (sign, Fraction(0)), g))
        ops.append(terms)
    return ops


def monogenic_problems(ops, poly):
    return [f"slot operator {i + 1} does not annihilate the result"
            for i, terms in enumerate(ops) if _apply(terms, poly)]


def check_extension(ops, n, r, result, g1, g2):
    """An extension of chart data (g1, g2) of e(n,2): monogenic, of degree r,
    restricting to g1 on the leading variables, with t_{2n-2}-linear part g2."""
    res, g1, g2 = plain(result), plain(g1), plain(g2)
    out = monogenic_problems(ops, res)
    if any(sum(exps) != r for exps, _ in res):
        out.append(f"extension is not homogeneous of degree {r}")
    lead, lin = 2 * n - 3, 2 * n - 2
    restricted = {key: v for key, v in res.items() if not any(key[0][lead:])}
    if restricted != g1:
        out.append("extension does not restrict to its initial data g1")
    linear = {}
    for (exps, mu), v in res.items():
        if exps[lead] == 1 and not any(exps[lin:]):
            e = list(exps)
            e[lead] = 0
            linear[(tuple(e), mu)] = v
    if linear != g2:
        out.append("t_{2n-2}-linear part of the extension is not g2")
    return out


def check_lift(ops, nk, result, psi, g):
    """A lift of seed psi by the y-polynomial g: monogenic, with y-degree at
    most that of g, and with top y-degree part g * psi."""
    res, psi = plain(result), plain(psi)
    out = monogenic_problems(ops, res)
    top_deg = sum(next(iter(g))[nk:])
    expected = {}
    for gexp, gval in g.items():
        for (exps, mu), v in psi.items():
            _add_into(expected, (tuple(a + b for a, b in zip(exps, gexp)), mu),
                      _mul(scalar(gval), v))
    top = {}
    for (exps, mu), v in res.items():
        ydeg = sum(exps[nk:])
        if ydeg > top_deg:
            out.append("lift exceeds the y-degree of g")
            break
        if ydeg == top_deg:
            top[(exps, mu)] = v
    if top != expected:
        out.append("top y-degree part of the lift is not g * psi")
    return out


# ---------------------------------------------------------------------------
# linear independence over a prime field with a square root of -1
# ---------------------------------------------------------------------------

PRIME = 1000000009  # prime, = 1 mod 4


def _sqrt_minus_one(p):
    for g in range(2, p):
        x = pow(g, (p - 1) // 4, p)
        if x * x % p == p - 1:
            return x
    raise ValueError("p must be 1 mod 4")


_I_MOD_P = _sqrt_minus_one(PRIME)


def _mod_p(v):
    re, im = v
    return (re.numerator * pow(re.denominator, -1, PRIME)
            + _I_MOD_P * im.numerator * pow(im.denominator, -1, PRIME)) % PRIME


def rank_mod_p(vectors):
    """Rank of sparse vectors over F_p; a lower bound for the rank over Q(i)."""
    pivots = {}
    for vec in vectors:
        row = {k: x for k, x in ((k, _mod_p(v)) for k, v in vec.items()) if x}
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                inv = pow(row[lead], -1, PRIME)
                pivots[lead] = {k: x * inv % PRIME for k, x in row.items()}
                break
            f = row[lead]
            for k, x in prow.items():
                y = (row.get(k, 0) - f * x) % PRIME
                if y:
                    row[k] = y
                else:
                    row.pop(k, None)
    return len(pivots)


def check_independent(results, expected_count):
    """Results for a basis of data: expected_count of them, independent."""
    out = check_equal("number of results", len(results), expected_count)
    rank = rank_mod_p([plain(p) for p in results])
    if rank != len(results):
        out.append(f"results span only {rank} of {len(results)} dimensions")
    return out
