"""The hot path runs on Gaussian-integer rows: GaussRational scalars are built
only at the API edge, so none is built while prolonging, taking ranks of the
solution slices, reading a filtration, re-checking a monogenic result or
checking the Clifford relations."""

import pytest

from kdirac import linalg, tableau
from kdirac.clifford import build_spinor_rep
from kdirac.euclidean import build_euclidean
from kdirac.parabolic import build_parabolic
from kdirac.polynomials import apply_op, solution_dim, solution_space
from kdirac.tableau import (
    cartan_test,
    filtration_dims,
    prolong,
    prolongation_dim,
    search_ordering,
)


@pytest.fixture(scope="module", params=["e(3,2)", "p(3,2)"])
def system(request):
    build = build_euclidean if request.param.startswith("e") else build_parabolic
    sys = build(3, 2)
    sys.tableau()
    return sys


@pytest.fixture
def built(monkeypatch):
    """A list whose length counts the GaussRational scalars built."""
    made, original = [], linalg.GaussRational.__init__

    def counting(self, *args, **kwargs):
        made.append(None)
        original(self, *args, **kwargs)

    monkeypatch.setattr(linalg.GaussRational, "__init__", counting)
    return made


def test_counter_sees_the_api_edge(system, built):
    assert system.tableau().basis.vectors and built


def test_prolongation_and_slices(system, built):
    t = system.tableau()
    lifted = prolong(t).lifted
    assert prolongation_dim(t) == lifted.dim
    assert prolongation_dim(lifted) == prolong(lifted).dim
    assert solution_dim(system.ops, system.vars, system.s, 3) > 0
    assert built == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cartan_test_under_a_random_flag(system, built, count_calls, seed):
    """Once dim A^(2) is known, drawing a random flag and testing under it
    builds no GaussRational and takes two column rank profiles: the flag's
    invertibility check and the filtration's."""
    t = prolong(system.tableau()).lifted
    prolongation_dim(t)
    built.clear()
    calls = count_calls([(tableau, "int_pivot_cols")])
    cartan_test(t, search_ordering(t, "random", seed))
    assert built == []
    assert calls == {"int_pivot_cols": 2}


@pytest.mark.parametrize("build, n, k, degrees", [
    (build_euclidean, 3, 2, (1, 2, 3)),
    (build_euclidean, 4, 2, (1, 2, 3)),
    (build_parabolic, 3, 2, (1, 2, 3)),
    (build_euclidean, 3, 3, (2,)),
], ids=["e(3,2)", "e(4,2)", "p(3,2)", "e(3,3)"])
def test_solution_dim_is_the_solution_space_dim(build, n, k, degrees):
    sys = build(n, k)
    for d in degrees:
        assert solution_dim(sys.ops, sys.vars, sys.s, d) == solution_space(
            sys.ops, sys.vars, sys.s, d).dim


@pytest.mark.parametrize("strategy, seed", [("greedy", None), ("random", 1)])
def test_filtration_under_a_chosen_flag(system, built, strategy, seed):
    t = prolong(system.tableau()).lifted
    ob = search_ordering(t, strategy, seed)
    built.clear()
    assert filtration_dims(t, ob)[-1] == 0
    assert built == []


def test_apply_op_on_a_monogenic_input(system, built):
    quadratic = getattr(system, "euclidean_monogenic_embedded", None)
    psi = (quadratic or system.monogenic_polynomials)(2)[0]
    built.clear()
    for op in system.ops:
        assert apply_op(op, psi).is_zero()
    assert built == []


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_clifford_relations(built, n):
    rep = build_spinor_rep(n)
    built.clear()
    rep.verify()
    assert built == []
