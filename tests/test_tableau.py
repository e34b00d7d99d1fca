import random
from fractions import Fraction
from functools import reduce
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from kdirac.euclidean import build_euclidean, level1_ordering
from kdirac.linalg import (
    IMAG,
    ExactMatrix,
    GaussRational,
    SubspaceBasis,
    int_pivot_cols,
    rank_rows,
)
from kdirac.parabolic import build_parabolic
from kdirac.tableau import (
    CartanReport,
    InvariantViolation,
    OrderedBasis,
    Tableau,
    cartan_test,
    filtration_dims,
    h02_dim,
    prolong,
    prolongation_dim,
    search_ordering,
    tensors,
)

GR = GaussRational


def random_tableau(rng, dim_V, dim_W, count):
    vecs = [
        {
            c: GR(rng.randint(-2, 2), rng.randint(-1, 1))
            for c in range(dim_V * dim_W)
            if rng.random() < 0.5
        }
        for _ in range(count)
    ]
    vecs = [{c: v for c, v in vec.items() if v} for vec in vecs]
    return Tableau(dim_V, dim_W, SubspaceBasis.from_vectors(dim_V * dim_W, vecs))


def assert_symmetric(rows, dim_V, dim_W, slots):
    """Every entry of each tensor row reappears at each permutation of its
    ``slots`` covector indices."""
    for row in rows:
        for coord, val in row.items():
            idx, w = divmod(coord, dim_W)
            digits = []
            for _ in range(slots):
                idx, d = divmod(idx, dim_V)
                digits.append(d)
            for perm in permutations(digits):
                mirror = reduce(lambda acc, d: acc * dim_V + d, perm, 0) * dim_W + w
                assert row.get(mirror) == val


class TestProlong:
    def test_zero_tableau(self):
        t = Tableau.zero(3, 2)
        assert prolong(t).dim == 0
        assert prolongation_dim(t) == 0

    @pytest.mark.parametrize("dim_V,dim_W", [(2, 1), (3, 2), (4, 3)])
    def test_full_tableau(self, dim_V, dim_W):
        t = Tableau.full(dim_V, dim_W)
        p = prolong(t)
        expected = comb(dim_V + 1, 2) * dim_W
        assert p.dim == expected
        assert prolongation_dim(t) == expected
        assert len(int_pivot_cols(tensors(p.lifted))) == expected

    def test_raw_vectors_symmetric(self):
        rng = random.Random(8)
        t = random_tableau(rng, 3, 2, 3)
        assert_symmetric(tensors(prolong(t).lifted), t.dim_V, t.dim_W, 2)

    def test_raw_slices_stay_in_tableau(self):
        rng = random.Random(15)
        t = random_tableau(rng, 3, 2, 4)
        for vec in tensors(prolong(t).lifted):
            for i in range(t.dim_V):
                slice_vec = {}
                for coord, (a, b) in vec.items():
                    pair, w = divmod(coord, t.dim_W)
                    fst, snd = divmod(pair, t.dim_V)
                    if fst == i:
                        slice_vec[snd * t.dim_W + w] = GR(a, b)
                assert t.basis.contains(slice_vec)

    @pytest.mark.parametrize("build, expected", [(build_euclidean, 32), (build_parabolic, 60)],
                             ids=["e(3,2)", "p(3,2)"])
    def test_second_prolongation_tensors(self, build, expected):
        t = build(3, 2).tableau()
        first = prolong(t).lifted
        rows = tensors(prolong(first).lifted)
        assert len(int_pivot_cols(rows)) == prolongation_dim(first) == expected
        assert_symmetric(rows, t.dim_V, t.dim_W, 3)


class TestFiltration:
    def test_full_tableau_filtration(self):
        t = Tableau.full(4, 3)
        dims = filtration_dims(t, OrderedBasis.identity(4))
        assert dims == [(4 - k) * 3 for k in range(1, 5)]

    def test_last_step_empty(self):
        rng = random.Random(23)
        t = random_tableau(rng, 3, 2, 3)
        dims = filtration_dims(t, OrderedBasis.identity(3))
        assert dims[-1] == 0
        assert all(a >= b for a, b in zip(dims, dims[1:]))

    def test_inverse_rows_with_different_denominators(self):
        # u1 = e1, u2 = e1 + 2 e2: e1 + e2 = u1/2 + u2/2 is not in span(u2),
        # so A_1 = 0; scaling only the 1/2 row of the inverse would give 1
        t = Tableau(2, 1, SubspaceBasis.from_vectors(2, [[1, 1]]))
        ob = OrderedBasis.from_rows([[1, 0], [1, 2]], "skew")
        assert filtration_dims(t, ob) == [0, 0] == sympy_filtration_dims(t, ob)

    def test_inverse_roundtrip(self):
        ob = OrderedBasis.from_rows([[1, 1, 0], [0, 1, IMAG], [1, 0, 1]], "with i")
        rows, den = ob.inverse_rows()
        entries = {(r, c): GR(a, b) for r, row in enumerate(rows) for c, (a, b) in row.items()}
        assert ob.change.matmul(ExactMatrix(3, 3, entries)) == ExactMatrix.identity(3).scaled(den)

    def test_singular_ordering_rejected(self):
        t = Tableau.full(2, 1)
        bad = OrderedBasis.from_rows([[1, 1], [2, 2]], "bad")
        with pytest.raises(ValueError, match="ordering 'bad' is singular"):
            filtration_dims(t, bad)


def gaussian(v):
    return QQ_I(QQ(v.re.numerator, v.re.denominator), QQ(v.im.numerator, v.im.denominator))


def sympy_filtration_dims(t, ob):
    """dim A_k = dim A - rank of the leading k * dim_W columns, with sympy
    (exact matrices over Q(i)) inverting the change of basis and transforming
    the basis."""
    n, w = t.dim_V, t.dim_W
    change = [[gaussian(ob.change.entry(i, j)) for j in range(n)] for i in range(n)]
    inv_t = DomainMatrix(change, (n, n), QQ_I).inv().transpose()
    rows = []
    for vec in t.basis.vectors:
        m = [[gaussian(vec.get(j * w + c, GR(0))) for c in range(w)] for j in range(n)]
        transformed = (inv_t * DomainMatrix(m, (n, w), QQ_I)).to_list()
        rows.append([x for row in transformed for x in row])
    basis = DomainMatrix(rows, (len(rows), n * w), QQ_I)
    return [t.dim - basis[:, : k * w].rank() for k in range(1, n + 1)]


@pytest.fixture(scope="module")
def e32_levels():
    t0 = build_euclidean(3, 2).tableau()
    return {0: t0, 1: prolong(t0).lifted}


class TestFiltrationOracle:
    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_flags_match_sympy(self, e32_levels, level, seed):
        t = e32_levels[level]
        ob = search_ordering(t, "random", seed)
        assert filtration_dims(t, ob) == sympy_filtration_dims(t, ob)

    def test_paper_level1_ordering_with_halves(self, e32_levels):
        ob = level1_ordering(build_euclidean(3, 2))
        rows, den = ob.inverse_rows()
        assert den == 2 and (1, 0) in [v for row in rows for v in row.values()]
        t = e32_levels[1]
        dims = filtration_dims(t, ob)
        assert dims == sympy_filtration_dims(t, ob)
        characters = [a - b for a, b in zip([t.dim] + dims, dims)]
        assert characters == [8, 6, 4, 0, 0, 0]


class TestCartanTest:
    def test_full_tableau_involutive(self):
        t = Tableau.full(3, 2)
        report = cartan_test(t)
        assert report.involutive
        assert sum(report.characters) == t.dim
        assert report.rhs_cartan_test == report.dim_prolongation

    def test_bound_holds_on_random_tableaux(self):
        rng = random.Random(31)
        for _ in range(12):
            dim_V, dim_W = rng.randint(2, 4), rng.randint(1, 3)
            t = random_tableau(rng, dim_V, dim_W, rng.randint(0, dim_V * dim_W))
            for ob in (
                OrderedBasis.identity(dim_V),
                search_ordering(t, "random", seed=rng.randint(0, 99)),
            ):
                report = cartan_test(t, ob)
                assert report.dim_prolongation <= report.rhs_cartan_test
                assert sum(report.characters) == t.dim

    def test_prolongation_dim_independent_of_ordering(self):
        rng = random.Random(41)
        t = random_tableau(rng, 3, 2, 4)
        dims = {
            cartan_test(t, search_ordering(t, "random", seed=s)).dim_prolongation
            for s in range(1, 6)
        }
        assert len(dims) == 1

    def test_hint_used_verbatim_but_bounded(self):
        t = Tableau.full(2, 2)
        report = cartan_test(t, dim_prolongation_hint=6)
        assert report.dim_prolongation == 6
        with pytest.raises(InvariantViolation):
            cartan_test(t, dim_prolongation_hint=10**6)


class TestH02:
    def test_full_tableau_no_torsion_space(self):
        assert h02_dim(Tableau.full(4, 2)) == 0

    def test_zero_tableau(self):
        assert h02_dim(Tableau.zero(4, 2)) == comb(4, 2) * 2

    def test_matches_explicit_skew_image(self):
        rng = random.Random(6)
        for _ in range(8):
            dim_V, dim_W = rng.randint(2, 4), rng.randint(1, 2)
            t = random_tableau(rng, dim_V, dim_W, rng.randint(0, 4))
            # independent route: rank of the explicit skew image vectors
            image = []
            for i in range(dim_V):
                for vec in t.basis.vectors:
                    out = {}
                    for coord, val in vec.items():
                        j, w = divmod(coord, dim_W)
                        if i == j:
                            continue
                        a, b = (i, j) if i < j else (j, i)
                        sign = 1 if i < j else -1
                        pair_index = (a * (2 * dim_V - a - 1)) // 2 + (b - a - 1)
                        key = pair_index * dim_W + w
                        cur = out.get(key, GR(0)) + sign * val
                        if cur:
                            out[key] = cur
                        elif key in out:
                            del out[key]
                    if out:
                        image.append(out)
            expected = comb(dim_V, 2) * dim_W - rank_rows(image)
            assert h02_dim(t) == expected


class TestSearchOrdering:
    def test_given_is_identity(self):
        t = Tableau.full(3, 1)
        ob = search_ordering(t, "given")
        assert ob.change.entries == {(i, i): GR(1) for i in range(3)}

    def test_random_reproducible(self):
        t = Tableau.full(4, 1)
        a = search_ordering(t, "random", seed=1)
        b = search_ordering(t, "random", seed=1)
        assert a.change == b.change
        assert a.label == "random:1"

    def test_random_requires_seed(self):
        with pytest.raises(ValueError):
            search_ordering(Tableau.full(2, 1), "random")

    def test_greedy_on_full_tableau(self):
        t = Tableau.full(3, 2)
        ob = search_ordering(t, "greedy")
        # any permutation gives the same characters on the full tableau
        assert cartan_test(t, ob).characters == cartan_test(t).characters

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            search_ordering(Tableau.full(2, 1), "mystery")


def reversed_identity(n):
    return [{i: 1} for i in reversed(range(n))]


class TestGreedyFlags:
    """The greedy flags of the paper's k=3 tableaux, pinned row by row."""

    def test_e33_level1(self):
        lifted = prolong(build_euclidean(3, 3).tableau()).lifted
        rows = search_ordering(lifted, "greedy").change.row_dicts()
        assert rows == [
            {6: 1}, {5: 1}, {4: 1}, {3: 1}, {4: 1, 8: 1}, {3: 1, 7: 1},
            {2: 1}, {1: 1}, {0: 1},
        ]

    @pytest.mark.parametrize(
        "build,n,k",
        [(build_euclidean, 3, 3), (build_euclidean, 4, 3), (build_parabolic, 3, 3)],
    )
    def test_level0_reversed_identity(self, build, n, k):
        t = build(n, k).tableau()
        rows = search_ordering(t, "greedy").change.row_dicts()
        assert rows == reversed_identity(t.dim_V)


ENTRIES = (GR(1), GR(-1), GR(Fraction(1, 2)), GR(0, 1), GR(1, 1), GR(Fraction(-1, 2), 2))


@st.composite
def small_tableaux(draw, max_V=3):
    dim_V = draw(st.integers(1, max_V))
    dim_W = draw(st.integers(1, 2))
    n = dim_V * dim_W
    entry = st.one_of(st.none(), st.sampled_from(ENTRIES))
    vecs = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n))
    vecs = [{c: v for c, v in enumerate(vec) if v is not None} for vec in vecs]
    return Tableau(dim_V, dim_W, SubspaceBasis.from_vectors(n, vecs))


def brute_force_greedy(t):
    """The greedy rule restated with whole-matrix ranks: at each step, among
    the candidates independent of the covectors already chosen, take the first
    whose W-block adds the most rank to the tableau plus the chosen blocks."""
    n, w = t.dim_V, t.dim_W
    one, neg = GR(1), GR(-1)
    candidates = [{i: one} for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            candidates += [{i: one, j: one}, {i: one, j: neg}]

    def block(cand):
        return [{slot * w + ww: v for slot, v in cand.items()} for ww in range(w)]

    state = list(t.basis.vectors)
    chosen = []
    for _ in range(n):
        best, best_gain = None, -1
        for cand in candidates:
            if rank_rows(chosen + [cand]) == len(chosen):
                continue
            gain = rank_rows(state + block(cand)) - rank_rows(state)
            if gain > best_gain:
                best, best_gain = cand, gain
        chosen.append(best)
        state += block(best)
    return chosen[::-1]


class TestGreedyOracle:
    @settings(max_examples=80, deadline=None)
    @given(small_tableaux())
    def test_matches_brute_force_rule(self, t):
        ob = search_ordering(t, "greedy")
        assert ob.change.row_dicts() == brute_force_greedy(t)


class TestRootRoute:
    """dim A^(q+1) from the root's equations on S^{q+2}V* (x) W against the
    kernel of the lifted constraint matrix over V* (x) A^(q)."""

    @settings(max_examples=60, deadline=None)
    @given(small_tableaux(max_V=4))
    def test_matches_lifted_route_at_depths_0_and_1(self, t):
        p = prolong(t)
        assert prolongation_dim(t) == p.dim
        assert prolongation_dim(p.lifted) == prolong(p.lifted).dim

    @pytest.mark.parametrize("n", [3, 4])
    def test_levels_0_to_2_match_monogenic_slices(self, n):
        system = build_euclidean(n, 2)
        t = system.tableau()
        for q in range(3):
            p = prolong(t)
            assert prolongation_dim(t) == system.monogenic_dim(q + 2) == p.dim
            t = p.lifted

    def test_e53_levels_1_and_2(self):
        system = build_euclidean(5, 3)
        lifted = prolong(system.tableau()).lifted
        assert prolongation_dim(lifted) == system.monogenic_dim(3) == 1312
        second = prolong(lifted).lifted
        assert prolongation_dim(second) == system.monogenic_dim(4) == 4536

    def test_chain_keeps_its_root(self):
        rng = random.Random(3)
        t = random_tableau(rng, 3, 2, 3)
        assert t.source is None and t.root is t
        lifted = prolong(t).lifted
        assert lifted.source is t
        assert prolong(lifted).lifted.root is t
