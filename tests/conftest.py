import pytest

from kdirac.linalg import int_kernel_rows


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap each (module, name) in ``targets`` with a counter keyed by name
    and return the counters."""

    def wrap(targets):
        calls = {}
        for module, name in targets:
            calls[name] = 0

            def counted(*args, _f=getattr(module, name), _name=name):
                calls[_name] += 1
                return _f(*args)

            monkeypatch.setattr(module, name, counted)
        return calls

    return wrap


def lifted_basis(t):
    """Reference basis of a tableau in its own coordinates: a root's basis,
    and for a lifted tableau A^(q) the kernel over V* (x) A^(q-1), column
    i * dim A^(q-1) + p, of one row per (i < j, w) demanding that the (i, j, w)
    and (j, i, w) tensor entries agree, with A^(q-1) in its own reference
    basis (recursing on ``t.source``). The common denominator of the source
    rows scales every column alike, so it keeps the kernel."""
    s = t.source
    if s is None:
        return t.basis
    source = lifted_basis(s)
    a, rows = source.dim, {}
    for p, vec in enumerate(source.rows):
        for coord, (re, im) in vec.items():
            j, w = divmod(coord, s.dim_W)
            for i in range(j):
                rows.setdefault((i, j, w), {})[i * a + p] = (re, im)
            for l in range(j + 1, s.dim_V):
                rows.setdefault((j, l, w), {})[l * a + p] = (-re, -im)
    return int_kernel_rows(list(rows.values()), s.dim_V * a)
