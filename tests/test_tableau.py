import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ, QQ_I
from sympy.polys.matrices import DomainMatrix

from conftest import lifted_basis
from kdirac import linalg, tableau
from kdirac.euclidean import build_euclidean, level1_ordering
from kdirac.linalg import (
    GaussRational,
    SubspaceBasis,
    int_pivot_cols,
    rank_rows,
    to_int_rows,
)
from kdirac.parabolic import build_parabolic
from kdirac.tableau import (
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


def column_multisets(n, d):
    """The column order of symmetric tensors, restated: d-element multisets of
    range(n) sorted by descending least index."""
    return sorted(combinations_with_replacement(range(n), d), key=lambda m: -m[0])


class TestProlong:
    def test_zero_tableau(self):
        t = Tableau.zero(3, 2)
        assert lifted_basis(prolong(t).lifted).dim == 0
        assert prolongation_dim(t) == 0

    @pytest.mark.parametrize("dim_V,dim_W", [(2, 1), (3, 2), (4, 3)])
    def test_full_tableau(self, dim_V, dim_W):
        t = Tableau.full(dim_V, dim_W)
        p = prolong(t)
        expected = comb(dim_V + 1, 2) * dim_W
        assert lifted_basis(p.lifted).dim == expected
        assert prolongation_dim(t) == expected

    def test_raw_slices_stay_in_tableau(self):
        rng = random.Random(15)
        t = random_tableau(rng, 3, 2, 4)
        pos = {m: c for c, m in enumerate(column_multisets(t.dim_V, 2))}
        for vec in tensors(t, 1):
            for i in range(t.dim_V):
                slice_vec = {}
                for j, w in product(range(t.dim_V), range(t.dim_W)):
                    val = vec.get(pos[tuple(sorted((i, j)))] * t.dim_W + w)
                    if val is not None:
                        slice_vec[j * t.dim_W + w] = GR(*val)
                assert len(int_pivot_cols(t.basis.rows + to_int_rows([slice_vec]))) == t.dim

    @pytest.mark.parametrize("build, expected", [(build_euclidean, 32), (build_parabolic, 60)],
                             ids=["e(3,2)", "p(3,2)"])
    def test_second_prolongation_tensors(self, build, expected):
        t = build(3, 2).tableau()
        second = prolong(prolong(t).lifted).lifted
        assert len(tensors(t, 2)) == lifted_basis(second).dim == expected


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

    def test_flag_whose_inverse_has_different_denominators(self):
        # u1 = e1, u2 = e1 + 2 e2: e1 + e2 = u1/2 + u2/2 is not in span(u2),
        # so A_1 = 0; scaling only the 1/2 row of the inverse would give 1
        t = Tableau(2, 1, SubspaceBasis.from_vectors(2, [[1, 1]]))
        ob = OrderedBasis(pairs([{0: 1}, {0: 1, 1: 2}]), "skew")
        assert filtration_dims(t, ob) == [0, 0] == sympy_filtration_dims(t, ob)

    def test_singular_ordering_rejected(self):
        with pytest.raises(ValueError, match="ordering 'bad' is singular"):
            OrderedBasis(pairs([{0: 1, 1: 1}, {0: 2, 1: 2}]), "bad")

    @pytest.mark.parametrize("rows", [[{0: (0, 0)}, {0: (1, 0)}],
                                      [{0: (1, 0), 1: (0, 0)}, {1: (1, 0)}]])
    def test_zero_entry_rejected(self, rows):
        with pytest.raises(ValueError, match="ordering 'z' stores a zero entry at column"):
            OrderedBasis(rows, "z")

    def test_rows_scaled_by_their_own_denominators(self):
        """Each row scaled to Gaussian integers on its own gives the
        filtration sympy gives on the rows as written, unscaled."""
        dense = [
            [Fraction(1, 2), GR(0, Fraction(1, 3)), 1],
            [GR(Fraction(2, 5), -1), 0, Fraction(-3, 4)],
            ["1/7", GR(1, 1), 0],
        ]
        ob = OrderedBasis([to_int_rows([{c: v if isinstance(v, GR) else GR(v)
                                         for c, v in enumerate(row)}])[0]
                           for row in dense], "mixed")
        assert ob.rows == [
            {0: (3, 0), 1: (0, 2), 2: (6, 0)},
            {0: (8, -20), 2: (-15, 0)},
            {0: (1, 0), 1: (7, 7)},
        ]
        t = random_tableau(random.Random(2), 3, 2, 5)  # identity flag: [4, 2, 0]
        for tab in (t, prolong(t).lifted):
            expected = sympy_filtration_dims(tab, ob, dense)
            assert filtration_dims(tab, ob) == expected == sympy_filtration_dims(tab, ob)


def gaussian(v):
    return QQ_I(QQ(v.re.numerator, v.re.denominator), QQ(v.im.numerator, v.im.denominator))


def sympy_filtration_dims(t, ob, dense=None):
    """dim A_k = dim A - rank of the leading k * dim_W columns, with sympy
    (exact matrices over Q(i)) inverting the change of basis and transforming
    the basis. The change of basis is the flag's rows, or the ``dense`` rows
    of int, Fraction, str or GaussRational entries it was built from."""
    n, w = t.dim_V, t.dim_W
    if dense is None:
        change = [[QQ_I(*row.get(j, (0, 0))) for j in range(n)] for row in ob.rows]
    else:
        change = [[gaussian(v if isinstance(v, GR) else GR(v)) for v in row] for row in dense]
    inv_t = DomainMatrix(change, (n, n), QQ_I).inv().transpose()
    rows = []
    for vec in lifted_basis(t).vectors:
        m = [[gaussian(vec.get(j * w + c, GR(0))) for c in range(w)] for j in range(n)]
        transformed = (inv_t * DomainMatrix(m, (n, w), QQ_I)).to_list()
        rows.append([x for row in transformed for x in row])
    basis = DomainMatrix(rows, (len(rows), n * w), QQ_I)
    return [t.dim - basis[:, : k * w].rank() for k in range(1, n + 1)]


@pytest.fixture(scope="module")
def e32_levels():
    t0 = build_euclidean(3, 2).tableau()
    t1 = prolong(t0).lifted
    return {0: t0, 1: t1, 2: prolong(t1).lifted}


class TestFiltrationOracle:
    @pytest.mark.parametrize("level", [0, 1])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_flags_match_sympy(self, e32_levels, level, seed):
        t = e32_levels[level]
        ob = search_ordering(t, "random", seed)
        assert filtration_dims(t, ob) == sympy_filtration_dims(t, ob)

    def test_paper_level1_ordering_with_halves(self, e32_levels):
        # the inverse of this flag has entries 1/2 and 1
        ob = level1_ordering(build_euclidean(3, 2))
        t = e32_levels[1]
        dims = filtration_dims(t, ob)
        assert dims == sympy_filtration_dims(t, ob)
        characters = [a - b for a, b in zip([t.dim] + dims, dims)]
        assert characters == [8, 6, 4, 0, 0, 0]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_p32_level1_random_flags_match_sympy(self, seed):
        t = prolong(build_parabolic(3, 2).tableau()).lifted
        ob = search_ordering(t, "random", seed)
        assert filtration_dims(t, ob) == sympy_filtration_dims(t, ob)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_level2_random_flags_match_sympy(self, e32_levels, seed):
        """q = 2: the root's equations on S^3 V* (x) W against the lifted basis
        of A^(2) inside V* (x) A^(1)."""
        t = e32_levels[2]
        ob = search_ordering(t, "random", seed)
        assert filtration_dims(t, ob) == sympy_filtration_dims(t, ob)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dim_V,dim_W,count", [(3, 2, 4), (4, 2, 6), (3, 3, 6)])
    def test_random_tableau_and_its_prolongation(self, seed, dim_V, dim_W, count):
        t = random_tableau(random.Random(seed), dim_V, dim_W, count)
        for tab in (t, prolong(t).lifted):
            for ob in (OrderedBasis.identity(dim_V), search_ordering(tab, "random", seed)):
                assert filtration_dims(tab, ob) == sympy_filtration_dims(tab, ob)


class TestRandomFlagCertificates:
    """Level 1 of the k = 3 tableaux and of e(4,2) is involutive under an exact
    random flag, not only under the greedy or the paper flag."""

    @pytest.mark.parametrize("build,n,k,characters", [
        (build_euclidean, 4, 2, (24, 20, 16, 12, 8) + (0,) * 3),
        (build_euclidean, 4, 3, (36, 32, 28, 24, 20, 16, 12) + (0,) * 5),
        (build_parabolic, 4, 3, tuple(range(48, 8, -4)) + (0,) * 5),
    ], ids=["e(4,2)", "e(4,3)", "p(4,3)"])
    def test_level1_random_1(self, build, n, k, characters):
        lifted = prolong(build(n, k).tableau()).lifted
        report = cartan_test(lifted, search_ordering(lifted, "random", 1))
        assert report.characters == characters
        rhs = sum(j * c for j, c in enumerate(characters, start=1))
        assert report.rhs_cartan_test == report.dim_prolongation == rhs
        assert report.involutive


class TestEntryGrowth:
    """The elimination keeps its intermediates small on dense random-flag
    rows. The largest entry any row update leaves, in bits, stays far below
    what first-come pivots build (tens of thousands of bits on e(3,2) level 2)."""

    @pytest.fixture
    def peak_bits(self, monkeypatch):
        peak, axpy = [0], linalg._axpy

        def recording(target, source, u, v):
            axpy(target, source, u, v)
            for a, b in target.values():
                peak[0] = max(peak[0], a.bit_length(), b.bit_length())

        monkeypatch.setattr(linalg, "_axpy", recording)
        return peak

    @pytest.mark.parametrize("seed", [1, 2])
    def test_e32_level2(self, e32_levels, peak_bits, seed):
        t = e32_levels[2]
        peak_bits[0] = 0
        assert cartan_test(t, search_ordering(t, "random", seed)).involutive
        assert 0 < peak_bits[0] < 1000

    def test_e43_level1(self, peak_bits):
        lifted = prolong(build_euclidean(4, 3).tableau()).lifted
        peak_bits[0] = 0
        assert cartan_test(lifted, search_ordering(lifted, "random", 1)).involutive
        assert 0 < peak_bits[0] < 6000


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

    def test_random_flags_rank_the_prolonged_equations_once(self, monkeypatch):
        system = build_euclidean(3, 2)
        root = system.tableau()
        lifted = prolong(root).lifted
        degrees, symmetric_rows = [], tableau._symmetric_rows
        monkeypatch.setattr(tableau, "_symmetric_rows", lambda equations, n, w, q: (
            degrees.append(q) or symmetric_rows(equations, n, w, q)))
        reports = [cartan_test(lifted, search_ordering(lifted, "random", seed))
                   for seed in range(1, 9)]
        again = cartan_test(prolong(root).lifted, level1_ordering(system))
        monkeypatch.undo()
        # nine filtrations and dim A^(1) on S^2 V* (x) W, dim A^(2) on S^3
        assert sorted(degrees) == [1] * 10 + [2]
        fresh = prolong(build_euclidean(3, 2).tableau()).lifted
        assert {r.dim_prolongation for r in reports} == {again.dim_prolongation}
        assert again.dim_prolongation == prolongation_dim(fresh) == 32

    def test_prolongation_dim_independent_of_ordering(self):
        rng = random.Random(41)
        t = random_tableau(rng, 3, 2, 4)
        dims = {
            cartan_test(t, search_ordering(t, "random", seed=s)).dim_prolongation
            for s in range(1, 6)
        }
        assert len(dims) == 1


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
    def test_random_reproducible(self):
        t = Tableau.full(4, 1)
        a = search_ordering(t, "random", seed=1)
        b = search_ordering(t, "random", seed=1)
        assert a.rows == b.rows
        assert a.label == "random:1"

    def test_random_rows_pinned(self):
        """The draw order of the generator, fixed: row-major, entries in -3..3."""
        assert search_ordering(Tableau.full(4, 1), "random", 1).rows == [
            {0: (-2, 0), 1: (1, 0), 2: (3, 0), 3: (3, 0)},
            {0: (3, 0), 1: (-3, 0), 2: (-1, 0), 3: (-3, 0)},
            {1: (3, 0)},
            {0: (2, 0), 2: (3, 0), 3: (-2, 0)},
        ]

    def test_random_redraw_eliminates_each_draw_once(self, count_calls):
        """Seed 2 first draws a singular 2 x 2 matrix; the constructor's check
        is the only elimination of either draw."""
        calls = count_calls([(tableau, "int_pivot_cols")])
        ob = search_ordering(Tableau.full(2, 1), "random", 2)
        assert ob.rows == [{0: (-3, 0), 1: (-1, 0)}, {0: (3, 0), 1: (-2, 0)}]
        assert calls == {"int_pivot_cols": 2}

    def test_random_requires_seed(self):
        with pytest.raises(ValueError):
            search_ordering(Tableau.full(2, 1), "random")

    def test_greedy_on_full_tableau(self):
        t = Tableau.full(3, 2)
        ob = search_ordering(t, "greedy")
        # any permutation gives the same characters on the full tableau
        assert cartan_test(t, ob).characters == cartan_test(t).characters

    def test_seed_without_use_is_refused(self):
        with pytest.raises(ValueError, match="takes no seed"):
            search_ordering(Tableau.full(2, 1), "greedy", seed=1)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            search_ordering(Tableau.full(2, 1), "mystery")


def reversed_identity(n):
    return [{i: (1, 0)} for i in reversed(range(n))]


def pairs(rows):
    """Rows of integer entries as Gaussian-integer pair rows."""
    return [{c: (v, 0) for c, v in row.items()} for row in rows]


class TestGreedyFlags:
    """The greedy flags of the paper's k=3 tableaux, pinned row by row."""

    def test_e33_level1(self):
        lifted = prolong(build_euclidean(3, 3).tableau()).lifted
        rows = search_ordering(lifted, "greedy").rows
        assert rows == pairs([
            {6: 1}, {5: 1}, {4: 1}, {3: 1}, {4: 1, 8: 1}, {3: 1, 7: 1},
            {2: 1}, {1: 1}, {0: 1},
        ])

    @pytest.mark.parametrize("build,expected", [
        (build_euclidean, [
            {10: 1}, {9: 1}, {8: 1}, {6: 1}, {5: 1}, {4: 1}, {3: 1}, {3: 1, 11: 1},
            {3: 1, 7: 1}, {2: 1}, {1: 1}, {0: 1},
        ]),
        (build_parabolic, [
            {14: 1}, {13: 1}, {12: 1}, {10: 1}, {9: 1}, {8: 1}, {6: 1}, {5: 1}, {4: 1},
            {3: 1}, {3: 1, 11: 1}, {3: 1, 7: 1}, {2: 1}, {1: 1}, {0: 1},
        ]),
    ])
    def test_level1_k3_n4(self, build, expected):
        """The sizes at which stored gains are skipped and residuals refreshed."""
        lifted = prolong(build(4, 3).tableau()).lifted
        assert search_ordering(lifted, "greedy").rows == pairs(expected)

    @pytest.mark.parametrize("build,n,expected", [
        (build_euclidean, 3, [{4: 1}, {3: 1}, {2: 1}, {2: 1, 5: 1}, {1: 1}, {0: 1}]),
        (build_euclidean, 4, [{7: 1}, {6: 1}, {4: 1}, {3: 1}, {2: 1}, {2: 1, 5: 1}, {1: 1},
                              {0: 1}]),
        (build_parabolic, 3, [{6: 1}, {4: 1}, {3: 1}, {2: 1}, {2: 1, 5: 1}, {1: 1}, {0: 1}]),
    ], ids=["e(3,2)", "e(4,2)", "p(3,2)"])
    def test_level2_k2(self, build, n, expected):
        """q = 2: the state reads W = A^(1) off ``tensors(root, 1)``."""
        t = prolong(prolong(build(n, 2).tableau()).lifted).lifted
        assert search_ordering(t, "greedy").rows == pairs(expected)

    @pytest.mark.parametrize(
        "build,n,k",
        [(build_euclidean, 3, 3), (build_euclidean, 4, 3), (build_parabolic, 3, 3)],
    )
    def test_level0_reversed_identity(self, build, n, k):
        t = build(n, k).tableau()
        rows = search_ordering(t, "greedy").rows
        assert rows == reversed_identity(t.dim_V)

    @pytest.mark.parametrize("build,n,level,reductions", [
        (build_euclidean, 3, 0, 3), (build_euclidean, 4, 0, 3), (build_parabolic, 3, 0, 3),
        (build_euclidean, 3, 1, 54),
    ])
    def test_block_reductions_counted(self, monkeypatch, build, n, level, reductions):
        """Reductions of a W-block against the state in V* (x) W, whose held
        pivots reach past dim V, unlike those of the chosen covectors. At
        level 0 the state is full after k = 3 steps: each step's first
        candidate reaches the bound w that every other one starts at, the
        third fills the room, and the later steps reduce nothing."""
        t = build(n, 3).tableau()
        if level:
            t = prolong(t).lifted
        calls = []
        echelon = tableau._echelon
        monkeypatch.setattr(tableau, "_echelon", lambda rows, held=None: (
            calls.append(max(held or (), default=0) >= t.dim_V), echelon(rows, held=held))[1])
        search_ordering(t, "greedy")
        assert sum(calls) == reductions


ENTRIES = (GR(1), GR(-1), GR(Fraction(1, 2)), GR(0, 1), GR(1, 1), GR(Fraction(-1, 2), 2))
UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))
SCALARS = ((0, 0), (1, 0), (-1, 0), (0, 1), (2, -1))


@st.composite
def small_tableaux(draw, max_V=3, max_W=2):
    dim_V = draw(st.integers(1, max_V))
    dim_W = draw(st.integers(1, max_W))
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

    def rank(rows):
        return len(int_pivot_cols(to_int_rows(rows)))

    state = list(lifted_basis(t).vectors)
    chosen = []
    for _ in range(n):
        best, best_gain = None, -1
        for cand in candidates:
            if rank(chosen + [cand]) == len(chosen):
                continue
            gain = rank(state + block(cand)) - rank(state)
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
        assert ob.rows == to_int_rows(brute_force_greedy(t))

    @settings(max_examples=80, deadline=None)
    @given(small_tableaux(max_V=5, max_W=3))
    def test_matches_brute_force_rule_up_to_dim_V_5(self, t):
        ob = search_ordering(t, "greedy")
        assert ob.rows == to_int_rows(brute_force_greedy(t))

    @pytest.mark.parametrize("build", [build_euclidean, build_parabolic], ids=["e(3,2)", "p(3,2)"])
    def test_matches_brute_force_rule_on_level1(self, build):
        lifted = prolong(build(3, 2).tableau()).lifted
        assert search_ordering(lifted, "greedy").rows == to_int_rows(brute_force_greedy(lifted))

    def test_sum_and_difference_are_distinct_lines(self):
        """After e0, e1 - e2 adds more rank than e1 and e1 + e2, which come
        before it: a key that merged e1 + e2 and e1 - e2, lines of one support,
        would take e1."""
        rows = [{0: -1, 2: -1, 5: 1, 6: -1}, {3: -1, 6: -1}, {1: 1, 3: -1, 7: -1}]
        t = Tableau(3, 3, SubspaceBasis.from_vectors(9, rows))
        expected = pairs([{1: 1}, {1: 1, 2: -1}, {0: 1}])
        assert search_ordering(t, "greedy").rows == expected == to_int_rows(brute_force_greedy(t))

    @settings(max_examples=80, deadline=None)
    @given(small_tableaux(max_V=5, max_W=3), st.data())
    def test_lines_equal_modulo_the_span_add_equal_rank(self, t, data):
        """The rule that lets candidates share a gain: for U spanned by
        candidate covectors, a unit λ and u in U, A + (U + c) (x) W and
        A + (U + (λc + u)) (x) W have one rank, as each block lies in the
        other plus U (x) W."""
        n, w = t.dim_V, t.dim_W
        covectors = [{i: (1, 0)} for i in range(n)] + [
            {i: (1, 0), j: (s, 0)} for i in range(n) for j in range(i + 1, n) for s in (1, -1)]
        span = data.draw(st.lists(st.sampled_from(covectors), max_size=n))
        c = data.draw(st.sampled_from(covectors))
        moved = {}
        terms = [(data.draw(st.sampled_from(UNITS)), c)] + [
            (data.draw(st.sampled_from(SCALARS)), u) for u in span]
        for (la, lb), vec in terms:
            for col, (a, b) in vec.items():
                re, im = moved.get(col, (0, 0))
                moved[col] = (re + la * a - lb * b, im + la * b + lb * a)
        moved = {col: v for col, v in moved.items() if v != (0, 0)}

        def rank(covs):
            blocks = [{s * w + ww: v for s, v in cov.items()} for cov in covs for ww in range(w)]
            return len(int_pivot_cols(t.basis.rows + blocks))

        assert rank(span + [c]) == rank(span + [moved])


def reference_state(t):
    basis = lifted_basis(t)
    return dict(zip(basis.pivots, basis.rows))


class TestGreedyState:
    """The greedy state at q >= 1, ``tensors(root, q)`` contracted into
    V* (x) A^(q-1) written in the basis ``tensors(root, q - 1)``, gives the
    flag that the reference kernel over V* (x) A^(q-1) gives: every gain is a
    rank of A^(q) + U (x) A^(q-1), whatever the basis of A^(q-1)."""

    @settings(max_examples=40, deadline=None)
    @given(small_tableaux(max_V=4))
    def test_flag_matches_the_reference_state_at_levels_1_and_2(self, t):
        for _ in range(2):
            t = prolong(t).lifted
            ours = search_ordering(t, "greedy").rows
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tableau, "_greedy_state", reference_state)
                assert search_ordering(t, "greedy").rows == ours


def chain_tensors(t):
    """The basis rows of ``t``, q levels below its root, expanded down the
    prolongation chain into rows over (V*)^(x)(q+1) (x) W of the root,
    slot-major: each step substitutes the source's basis rows for the columns
    i * dim(source) + p."""
    rows = lifted_basis(t).rows
    while t.source is not None:
        t = t.source
        source = lifted_basis(t)
        a, ambient, basis = source.dim, source.ambient_dim, source.rows
        expanded = []
        for c in rows:
            x = {}
            for col, (la, lb) in c.items():
                i, p = divmod(col, a)
                offset = i * ambient
                for coord, (va, vb) in basis[p].items():
                    key = offset + coord
                    re, im = la * va - lb * vb, la * vb + lb * va
                    cur = x.get(key)
                    if cur is not None:
                        re, im = re + cur[0], im + cur[1]
                        if not (re or im):
                            del x[key]
                            continue
                    x[key] = (re, im)
            expanded.append(x)
        rows = expanded
    return rows


def written_out(rows, dim_V, dim_W, q):
    """Symmetric tensor rows over multiset columns, written out over the
    ordered covector slots, slot-major."""
    pos = {m: c for c, m in enumerate(column_multisets(dim_V, q + 1))}
    out = []
    for row in rows:
        x = {}
        for idx, slots in enumerate(product(range(dim_V), repeat=q + 1)):
            base = pos[tuple(sorted(slots))] * dim_W
            for w in range(dim_W):
                val = row.get(base + w)
                if val is not None:
                    x[idx * dim_W + w] = GR(*val)
        out.append(x)
    return out


def assert_tensors_match_chain(t):
    """tensors(t, q) spans the same subspace as the chain expansion of the
    q-th prolongation of t, for q = 0, 1, 2."""
    lifted = t
    for q in range(3):
        ambient = t.dim_V ** (q + 1) * t.dim_W
        chain = [{c: GR(*v) for c, v in row.items()} for row in chain_tensors(lifted)]
        ours = written_out(tensors(t, q), t.dim_V, t.dim_W, q)
        assert (SubspaceBasis.from_vectors(ambient, ours)
                == SubspaceBasis.from_vectors(ambient, chain))
        lifted = prolong(lifted).lifted


class TestTensorsOracle:
    @pytest.mark.parametrize("lifts,q", [(0, -1), (0, -2), (1, 0)])
    def test_negative_level_or_lifted_tableau_refused(self, lifts, q):
        t = build_euclidean(3, 2).tableau()
        for _ in range(lifts):
            t = prolong(t).lifted
        with pytest.raises(ValueError, match=rf"^e\(3,2\) level {lifts}: tensors need a root "
                                             rf"tableau and q >= 0, got q = {q}$"):
            tensors(t, q)

    @settings(max_examples=30, deadline=None)
    @given(small_tableaux())
    def test_small_tableaux(self, t):
        assert_tensors_match_chain(t)

    @pytest.mark.parametrize("build,n,k", [
        (build_euclidean, 3, 2), (build_parabolic, 3, 2), (build_euclidean, 3, 3),
    ], ids=["e(3,2)", "p(3,2)", "e(3,3)"])
    def test_paper_tableaux(self, build, n, k):
        assert_tensors_match_chain(build(n, k).tableau())


class TestRootRoute:
    """dim A^(q+1) from the root's equations on S^{q+2}V* (x) W against the
    reference kernel over V* (x) A^(q), ``lifted_basis``."""

    @settings(max_examples=60, deadline=None)
    @given(small_tableaux(max_V=4))
    def test_matches_lifted_route_at_depths_0_and_1(self, t):
        lifted = prolong(t).lifted
        assert prolongation_dim(t) == lifted_basis(lifted).dim
        assert prolongation_dim(lifted) == lifted_basis(prolong(lifted).lifted).dim

    @pytest.mark.parametrize("build, n, k", [
        (build_euclidean, 3, 2), (build_euclidean, 4, 2), (build_parabolic, 3, 2),
        (build_euclidean, 3, 3),
    ], ids=["e(3,2)", "e(4,2)", "p(3,2)", "e(3,3)"])
    def test_lifted_basis_at_levels_0_and_1(self, build, n, k):
        """The reference V* (x) A kernel has the dimension the root's
        equations give."""
        t = build(n, k).tableau()
        for _ in range(2):
            lifted = prolong(t).lifted
            assert lifted_basis(lifted).dim == prolongation_dim(t)
            t = lifted

    def test_level1_report_solves_no_lifted_kernel(self, count_calls):
        system = build_euclidean(3, 2)
        root = system.tableau()
        cartan_test(prolong(root).lifted, level1_ordering(system))  # warms the memos
        calls = count_calls([(tableau, "int_kernel_rows")])
        cartan_test(prolong(root).lifted, level1_ordering(system))
        assert calls == {"int_kernel_rows": 0}

    @pytest.mark.parametrize("n", [3, 4])
    def test_levels_0_to_2_match_monogenic_slices(self, n):
        system = build_euclidean(n, 2)
        t = system.tableau()
        for q in range(3):
            p = prolong(t)
            assert prolongation_dim(t) == system.monogenic_dim(q + 2) == lifted_basis(p.lifted).dim
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


def reference_symmetric_rows(equations, n, w, q):
    """The per-multiset assembly, restated: a fresh index of the (q+1)-multiset
    columns, then for each q-multiset m the columns of m + {i}."""
    pos = {m: c * w for c, m in enumerate(column_multisets(n, q + 1))}
    rows = []
    for m in combinations_with_replacement(range(n), q):
        base = [pos[tuple(sorted(m + (i,)))] for i in range(n)]
        for e in equations:
            row = {}
            for coord, v in e.items():
                i, ww = divmod(coord, w)
                row[base[i] + ww] = v
            rows.append(row)
    return rows, len(pos) * w


class TestSymmetricRowsOracle:
    """``_symmetric_rows`` reads the shared ``_contractions`` table and
    builds, row for row, what the per-multiset loop builds."""

    def test_random_equations(self):
        rng = random.Random(53)
        for n in range(1, 8):
            for q in range(4):
                w = rng.randint(1, 3)
                equations = [{c: (rng.randint(-3, 3), rng.randint(-1, 1))
                              for c in range(n * w) if rng.random() < 0.4}
                             for _ in range(rng.randint(0, 3))]
                assert (tableau._symmetric_rows(equations, n, w, q)
                        == reference_symmetric_rows(equations, n, w, q))

    def test_paper_equations(self):
        for t in (build_euclidean(3, 2).tableau(), build_parabolic(3, 2).tableau()):
            for q in range(3):
                assert (tableau._symmetric_rows(t.equations, t.dim_V, t.dim_W, q)
                        == reference_symmetric_rows(t.equations, t.dim_V, t.dim_W, q))

    def test_contractions_are_shared_and_read_only(self):
        assert tableau._contractions(4, 1) is tableau._contractions(4, 1)
        count, bases = tableau._contractions(4, 1)
        assert count == comb(5, 2) and len(bases) == 4
        assert all(isinstance(base, tuple) and len(base) == 4 for base in bases)
