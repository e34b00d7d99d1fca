"""The four benchmark workloads.

Each workload has a ``build`` step, timed as set-up, which constructs the
systems and inputs it uses, and a ``plan`` step, not timed, which turns them
into a list of operations with a check for each. The plan also computes the
reference values that have no closed form, by a second route through the
package, and collects problems found in them.

Operations reach the package through module attributes (``T.cartan_test``),
so the tracer's wrappers see every call.
"""

import random
from itertools import combinations_with_replacement

import checks as C
from kdirac import euclidean as E
from kdirac import parabolic as P
from kdirac import polynomials as PO
from kdirac import tableau as T
from kdirac import weyl as W


class Plan:
    def __init__(self):
        self.ops = []  # (name, thunk, check); check(result) -> problems
        self.groups = []  # (op indices, check); check(results) -> problems
        self.problems = []  # faults in the reference values themselves

    def op(self, name, thunk, check):
        self.ops.append((name, thunk, check))
        return len(self.ops) - 1


def _report(**expected):
    return lambda report: C.check_report(report, **expected)


def _equals(name, expected):
    return lambda got: C.check_equal(name, got, expected)


def _second_route(plan, name, value, pinned):
    """A value computed by a second route, pinned to its regression number."""
    plan.problems += C.check_equal(name, value, pinned)
    return value


# ---------------------------------------------------------------------------
# cartan-k2: the paper's k = 2 claims under the paper flags
# ---------------------------------------------------------------------------

E_RANGE = range(3, 7)
P_RANGE = range(3, 6)


def build_cartan_k2():
    es = {n: E.build_euclidean(n, 2) for n in E_RANGE}
    ps = {n: P.build_parabolic(n, 2) for n in P_RANGE}
    for p in ps.values():
        p.euclidean()  # matrix-space twin that the level-1 paper flag reads
    return es, ps


def plan_cartan_k2(ctx, seed):
    es, ps = ctx
    plan = Plan()
    for n, sys in es.items():
        lvl0, lvl1 = C.e_level0(n, 2), C.e_level1_k2(n)
        weyl_sum = sum(d for _, d in W.module_table(n))
        plan.problems += C.check_equal(f"Weyl table sum n={n}", weyl_sum,
                                       lvl1["dim_prolongation"])
        plan.op(f"e({n},2) level 0",
                lambda sys=sys: T.cartan_test(sys.tableau(), E.level0_ordering(sys)),
                _report(**lvl0, involutive=False))
        plan.op(f"e({n},2) level 1",
                lambda sys=sys: T.cartan_test(T.prolong(sys.tableau()).lifted,
                                              E.level1_ordering(sys)),
                _report(**lvl1, involutive=True))
        for degree, dim in ((2, lvl0["dim_prolongation"]), (3, lvl1["dim_prolongation"])):
            plan.op(f"e({n},2) slice {degree}",
                    lambda sys=sys, d=degree: PO.solution_dim(sys.ops, sys.vars, sys.s, d),
                    _equals(f"degree-{degree} slice", dim))
    for n, p in ps.items():
        lvl0, lvl1 = C.p_level0(n, 2), C.p_level1_k2(n)
        check0 = _report(**lvl0, involutive=False)
        check1 = _report(**lvl1, involutive=True)
        plan.op(f"p({n},2) suite", lambda p=p: P.parabolic_cartan_suite(p),
                lambda pair, c0=check0, c1=check1: c0(pair[0]) + c1(pair[1]))
        plan.op(f"p({n},2) graded split",
                lambda p=p: P.parabolic_prolongation_decomposition(p),
                _equals("graded split", C.p_graded_split_k2(n)))
    return plan


# ---------------------------------------------------------------------------
# greedy-k3: k = 3 has no hand-picked flag, so the greedy search runs
# ---------------------------------------------------------------------------


GREEDY = ((3, 3, 1), (3, 3, 0), (4, 3, 0))  # (n, k, level) of e(n,k)


def build_greedy_k3():
    es = {(n, k): E.build_euclidean(n, k) for n, k in {(n, k) for n, k, _ in GREEDY}}
    return es, P.build_parabolic(3, 3)


def _greedy_report(t):
    return T.cartan_test(t, T.search_ordering(t, "greedy"))


def plan_greedy_k3(ctx, seed):
    es, p33 = ctx
    plan = Plan()
    e33_cubic = _second_route(plan, "e(3,3) monogenic_dim(3)",
                              es[(3, 3)].monogenic_dim(3), 80)
    for n, k, level in GREEDY:
        sys = es[(n, k)]
        if level == 0:
            plan.op(f"e({n},{k}) level 0 greedy",
                    lambda sys=sys: _greedy_report(sys.tableau()),
                    _report(dim=C.e_level0(n, k)["dim"],
                            dim_prolongation=C.e_level0(n, k)["dim_prolongation"],
                            involutive=False))
        else:
            plan.op(f"e({n},{k}) level 1 greedy",
                    lambda sys=sys: _greedy_report(T.prolong(sys.tableau()).lifted),
                    _report(dim=C.e_level0(n, k)["dim_prolongation"],
                            dim_prolongation=e33_cubic, involutive=True))
    plan.op("p(3,3) level 0 greedy", lambda: _greedy_report(p33.tableau()),
            _report(dim=C.p_level0(3, 3)["dim"],
                    dim_prolongation=C.p_level0(3, 3)["dim_prolongation"],
                    involutive=False))
    return plan


# ---------------------------------------------------------------------------
# random-flag: tableaux already settled, re-tested under random flags
# ---------------------------------------------------------------------------

FLAGS_PER_TABLEAU = 8
# Per-flag cost on e(4,3) level 0 ranges 0.7-2.2 s over flag seeds 1-5, far
# wider than any bound, so its flags are pinned; the seed drives the others.
E43_FLAGS = (1, 2)


def build_random_flag():
    e32, e42, e43 = (E.build_euclidean(n, k) for n, k in ((3, 2), (4, 2), (4, 3)))
    p32 = P.build_parabolic(3, 2)
    return {
        "e(3,2) level 1": T.prolong(e32.tableau()).lifted,
        "p(3,2) level 1": T.prolong(p32.tableau()).lifted,
        "e(4,2) level 0": e42.tableau(),
        "e(4,3) level 0": e43.tableau(),
    }


def _random_report(t, flag):
    return T.cartan_test(t, T.search_ordering(t, "random", flag))


def plan_random_flag(ctx, seed):
    plan = Plan()
    e32, p32 = C.e_level1_k2(3), C.p_level1_k2(3)
    # (dim A, dim A^(1), rhs of the flag that certified involutivity)
    expected = {
        "e(3,2) level 1": dict(dim=e32["dim"], dim_prolongation=e32["dim_prolongation"],
                               rhs_floor=e32["rhs"]),
        "p(3,2) level 1": dict(dim=p32["dim"], dim_prolongation=p32["dim_prolongation"],
                               rhs_floor=p32["rhs"]),
        "e(4,2) level 0": dict(dim=C.e_level0(4, 2)["dim"],
                               dim_prolongation=C.e_level0(4, 2)["dim_prolongation"],
                               involutive=False),
        "e(4,3) level 0": dict(dim=C.e_level0(4, 3)["dim"],
                               dim_prolongation=C.e_level0(4, 3)["dim_prolongation"],
                               involutive=False),
    }
    rng = random.Random(seed)
    for label, exp in expected.items():
        t = ctx[label]
        flags = (E43_FLAGS if label.startswith("e(4,3)") else
                 [rng.randrange(1, 1 << 31) for _ in range(FLAGS_PER_TABLEAU)])
        for flag in flags:
            plan.op(f"{label} random:{flag}",
                    lambda t=t, f=flag: _random_report(t, f), _report(**exp))
    return plan


# ---------------------------------------------------------------------------
# extend-lift: many mid-size solves sharing one constraint matrix
# ---------------------------------------------------------------------------

EXTENSIONS = ((3, 3), (4, 2))  # (n, r) of e(n,2)
LIFTS = ((1, 1), (1, 2), (2, 1))  # (seed degree, power of y_12) on p(3,2)


def _monomials(nvars, used, degree):
    """Exponent tuples of the given degree in the first ``used`` variables."""
    out = []
    for combo in combinations_with_replacement(range(used), degree):
        e = [0] * nvars
        for v in combo:
            e[v] += 1
        out.append(tuple(e))
    return out


def chart_data_basis(sys, r):
    """Basis of the initial data (g1, g2) of degree r for e(n,2): spinor
    monomials of degrees r and r-1 in t_1..t_{2n-3}."""
    n, s = sys.n, sys.s
    vars = E.chart_vars(n)
    zero = PO.SpinorPoly.zero(vars, s)
    data = []
    for degree, slot in ((r, 0), (r - 1, 1)):
        for e in _monomials(len(vars), 2 * n - 3, degree):
            for mu in range(s):
                g = PO.SpinorPoly.monomial(vars, s, e, mu)
                data.append((g, zero) if slot == 0 else (zero, g))
    return data


def build_extend_lift():
    es = {n: E.build_euclidean(n, 2) for n in (3, 4)}
    p32 = P.build_parabolic(3, 2)
    data = {(n, r): chart_data_basis(es[n], r) for n, r in EXTENSIONS}
    seeds = {d: p32.euclidean_monogenic_embedded(d) for d in sorted({d for d, _ in LIFTS})}
    return es, p32, data, seeds


def plan_extend_lift(ctx, seed):
    es, p32, data, seeds = ctx
    plan = Plan()
    gammas = {}
    for n, sys in list(es.items()) + [("p", p32)]:
        gammas[n] = C.gamma_entries(sys.rep)
        plan.problems += C.clifford_problems(gammas[n], sys.s)
    for n, r in EXTENSIONS:
        sys, ops = es[n], C.chart_dirac_terms(n, gammas[n])
        members = [
            plan.op(f"extend e({n},2) r={r} #{j}",
                    lambda sys=sys, g1=g1, g2=g2: E.extend_from_initial_data(sys, g1, g2),
                    lambda res, ops=ops, n=n, r=r, g1=g1, g2=g2:
                        C.check_extension(ops, n, r, res, g1, g2))
            for j, (g1, g2) in enumerate(data[(n, r)])
        ]
        plan.groups.append((members, lambda results, n=n, r=r:
                            C.check_independent(results, C.initial_dim_k2(n, r))))
    pops = C.parabolic_dirac_terms(p32.n, p32.k, gammas["p"])
    nk = p32.n * p32.k
    for degree, power in LIFTS:
        g = P.y_monomial(p32, 1, 2, power)
        members = [
            plan.op(f"lift p(3,2) seed deg {degree} #{j} by y12^{power}",
                    lambda psi=psi, g=g: P.lift_check(p32, psi, g),
                    lambda res, psi=psi, g=g: C.check_lift(pops, nk, res, psi, g))
            for j, psi in enumerate(seeds[degree])
        ]
        # the seeds are a basis of the degree-1 or degree-2 slice of e(3,2)
        count = C.e_level0(3, 2)["dim" if degree == 1 else "dim_prolongation"]
        plan.groups.append((members, lambda results, count=count:
                            C.check_independent(results, count)))
    return plan


WORKLOADS = {
    "cartan-k2": (build_cartan_k2, plan_cartan_k2),
    "greedy-k3": (build_greedy_k3, plan_greedy_k3),
    "random-flag": (build_random_flag, plan_random_flag),
    "extend-lift": (build_extend_lift, plan_extend_lift),
}
