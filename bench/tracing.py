"""Spans around the public functions of each ``kdirac`` module.

The tracer replaces each timed function by a wrapper in every ``kdirac``
module that holds it, so calls between modules and calls inside a module both
pass through the wrapper; ``uninstall`` puts the originals back. A span's self
time is its duration minus the whole time of the wrapped calls it made, so
the bookkeeping of a child span is not charged to its parent.

Sizes of the linear-algebra calls are measured here, outside the spans:
input rows, occupied columns and nonzeros, the rank returned, the number of
independent column blocks (by a union-find of the benchmark's own) and the
largest numerator or denominator bit length in the returned rows.
"""

import json
import sys
from collections import Counter
from time import perf_counter

TIMED = {
    "linalg": ("kernel_rows", "rank_rows", "rref_rows", "solve_rows"),
    "polynomials": ("apply_op", "solution_space", "solution_dim"),
    "tableau": ("prolong", "prolongation_dim", "filtration_dims", "cartan_test",
                "search_ordering"),
    "euclidean": ("build_euclidean", "extend_from_initial_data"),
    "parabolic": ("build_parabolic", "lift_check", "parabolic_cartan_suite",
                  "parabolic_prolongation_decomposition"),
    "clifford": ("build_spinor_rep",),
}

LINALG_SIZES = ("in_rows", "in_cols", "in_nnz", "rank", "blocks")


def _timed(module, names, quantities):
    return [(f"{module}.{n}.{q}", "s" if q == "self_s" else "count")
            for n in names for q in quantities]


# The per-layer metrics a traced run reports, with their units.
PER_LAYER = (
    _timed("linalg", TIMED["linalg"], ("self_s", "calls"))
    + [(f"linalg.{k}", "count") for k in LINALG_SIZES]
    + [("linalg.out_max_bits", "bits")]
    + _timed("polynomials", ("apply_op",), ("self_s", "calls", "terms"))
    + _timed("polynomials", ("solution_space", "solution_dim"), ("self_s", "calls"))
    + _timed("tableau", TIMED["tableau"], ("self_s", "calls"))
    + [("euclidean.build_euclidean.s", "s")]
    + _timed("euclidean", ("extend_from_initial_data",), ("self_s", "calls"))
    + [("parabolic.build_parabolic.s", "s")]
    + _timed("parabolic", ("lift_check",), ("self_s", "calls"))
    + _timed("parabolic", ("parabolic_cartan_suite",
                           "parabolic_prolongation_decomposition"), ("self_s",))
    + [("clifford.build_spinor_rep.s", "s"), ("trace.overhead_s", "s")]
)


def column_blocks(rows):
    """Number of connected components of the rows' column supports."""
    parent = {}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for row in rows:
        root = None
        for c in row:
            if c not in parent:
                parent[c] = c
            r = find(c)
            if root is None:
                root = r
            elif r != root:
                parent[r] = root
    return sum(1 for c in parent if parent[c] == c)


def _bits(rows):
    top = 0
    for row in rows:
        if row is None:
            continue
        for v in row.values():
            top = max(top, v.re.numerator.bit_length(), v.re.denominator.bit_length(),
                      v.im.numerator.bit_length(), v.im.denominator.bit_length())
    return top


def _linalg_output(name, args, result):
    """(rank, returned rows) of a linear-algebra call."""
    if name == "rank_rows":
        return result, ()
    if name == "rref_rows":
        return len(result[0]), result[1]
    if name == "kernel_rows":
        return args[1] - result.dim, result.vectors
    return result[1], result[0]  # solve_rows


class Tracer:
    def __init__(self):
        self._patched = []
        self.reset()

    def reset(self):
        """Start a new phase: drop spans, counts and sizes."""
        self.spans = []
        self.origin = perf_counter()
        self._stack = []
        self.self_s = Counter()
        self.total_s = Counter()
        self.calls = Counter()
        self.sizes = Counter()
        self.max_bits = 0

    def install(self):
        modules = [m for name, m in sys.modules.items() if name.startswith("kdirac")]
        for mod_name, names in TIMED.items():
            home = sys.modules[f"kdirac.{mod_name}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{mod_name}.{name}", original)
                sites = [(mod, attr) for mod in modules
                         for attr, value in vars(mod).items() if value is original]
                for mod, attr in sites:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def _wrap(self, label, fn):
        tracer = self
        name = label.split(".", 1)[1]
        linalg = label.startswith("linalg.")
        counts_terms = label == "polynomials.apply_op"

        def wrapper(*args, **kwargs):
            entered = perf_counter()
            if linalg:
                rows = args[0]
                if not isinstance(rows, (list, tuple)):
                    rows = list(rows)
                    args = (rows,) + args[1:]
                sizes = tracer.sizes
                sizes["in_rows"] += len(rows)
                sizes["in_nnz"] += sum(len(r) for r in rows)
                sizes["in_cols"] += len(set().union(*rows)) if rows else 0
                sizes["blocks"] += column_blocks(rows)
            elif counts_terms:
                tracer.sizes["terms"] += len(args[1].coeffs)
            index = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [index, 0.0]
            tracer.spans.append(None)
            tracer._stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer._stack.pop()
                duration = end - start
                own = duration - frame[1]
                tracer.spans[index] = (label, parent, start - tracer.origin,
                                       end - tracer.origin, own)
                tracer.self_s[label] += own
                tracer.total_s[label] += duration
                tracer.calls[label] += 1
                if linalg and result is not None:
                    rank, out_rows = _linalg_output(name, args, result)
                    tracer.sizes["rank"] += rank
                    tracer.max_bits = max(tracer.max_bits, _bits(out_rows))
                if tracer._stack:
                    tracer._stack[-1][1] += perf_counter() - entered

        return wrapper

    def mark(self):
        return Counter(self.self_s)

    def scale_since(self, mark, factor):
        """Scale the self time gathered since ``mark`` by ``factor``."""
        for label, value in self.self_s.items():
            self.self_s[label] = mark[label] + (value - mark[label]) * factor

    def counts(self):
        """Counts and sizes of the phase, which repeat exactly run to run."""
        out = {f"{label}.calls": self.calls[label] for label in self.labels()}
        out.update({f"linalg.{k}": self.sizes[k] for k in LINALG_SIZES})
        out["linalg.out_max_bits"] = self.max_bits
        out["polynomials.apply_op.terms"] = self.sizes["terms"]
        return out

    @staticmethod
    def labels():
        return [f"{m}.{n}" for m, names in TIMED.items() for n in names]

    def write_spans(self, path):
        names = self.labels()
        code = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "parent", "start_s", "end_s", "self_s"],
                "names": names,
                "spans": [[code[l], p, round(a, 7), round(b, 7), round(s, 7)]
                          for l, p, a, b, s in self.spans],
            }, fh, separators=(",", ":"))
