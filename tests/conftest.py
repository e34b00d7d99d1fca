import pytest

from kdirac.linalg import IMAG, ZERO, ExactMatrix, _ints, int_kernel_rows


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


def oracle_term_table(spinor_dim, terms):
    """(table, den) of a ``DiffOp`` on ``terms``, built in GaussRational: each
    coefficient times each matrix entry, summed per (variable, coefficient
    monomial, mu, nu), then scaled to Gaussian integers over the least common
    denominator of the products."""
    products = {}
    for coeff, var, matrix in terms:
        for cexp, cval in coeff.items():
            for (nu, mu), mval in matrix.entries.items():
                key = (var, tuple(cexp), mu, nu)
                products[key] = products.get(key, ZERO) + mval * cval
    (products,), den = _ints([products])
    table = {}
    for (var, cexp, mu, nu), v in sorted(products.items()):
        table.setdefault((var, cexp), [[] for _ in range(spinor_dim)])[mu].append((nu, v))
    return tuple((var, cexp, cols) for (var, cexp), cols in table.items()), den


_PAULI_X = ExactMatrix(2, 2, {(0, 1): 1, (1, 0): 1})
_PAULI_Y = ExactMatrix(2, 2, {(0, 1): -IMAG, (1, 0): IMAG})
_PAULI_Z = ExactMatrix(2, 2, {(0, 0): 1, (1, 1): -1})
_ID2 = ExactMatrix.identity(2)


def _kron_chain(blocks):
    out = blocks[0]
    for b in blocks[1:]:
        out = ExactMatrix(out.rows * b.rows, out.cols * b.cols, {
            (ra * b.rows + rb, ca * b.cols + cb): va * vb
            for (ra, ca), va in out.entries.items() for (rb, cb), vb in b.entries.items()})
    return out


def oracle_spinor_rep(n):
    """(generators, chirality) of the spinor representation of R^n as
    ``ExactMatrix`` Kronecker chains of the Pauli matrices in GaussRational,
    the Hermitian family times i; chirality None for odd n."""
    m = n // 2
    hermitian = []
    for a in range(m):
        rest = [_ID2] * (m - a - 1)
        hermitian += [_kron_chain([_PAULI_Z] * a + [p] + rest) for p in (_PAULI_X, _PAULI_Y)]
    if n % 2:
        hermitian.append(_kron_chain([_PAULI_Z] * m))
    gamma = [ExactMatrix(g.rows, g.cols, {key: v * IMAG for key, v in g.entries.items()})
             for g in hermitian[:n]]
    return gamma, None if n % 2 else _kron_chain([_PAULI_Z] * m)
