"""The hot path runs on Gaussian-integer rows: GaussRational scalars are built
only at the API edge, so none is built while prolonging, taking ranks of the
solution slices, reading a filtration or re-checking a monogenic result."""

import pytest

from kdirac import linalg
from kdirac.euclidean import build_euclidean
from kdirac.parabolic import build_parabolic
from kdirac.polynomials import apply_op, solution_dim
from kdirac.tableau import filtration_dims, prolong, prolongation_dim, search_ordering


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


@pytest.mark.parametrize("strategy, seed", [("greedy", None), ("random", 1)])
def test_filtration_once_the_inverse_is_warm(system, built, strategy, seed):
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
