"""The benchmark's tracer names only functions that exist.

A traced run of ``bench/run.py`` wraps each function named in
``bench/tracing.py`` and fails to start when one has gone; its size records
read ``solve_rows`` as (solutions, rank).
"""

import importlib
import importlib.util
from pathlib import Path

from kdirac.linalg import GaussRational, solve_rows

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    for module, names in load_tracing().TIMED.items():
        mod = importlib.import_module(f"kdirac.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"kdirac.{module}.{name}"


def test_solve_rows_returns_solutions_and_rank():
    one = GaussRational(1)
    solutions, rank = solve_rows([{0: one}, {0: one}], 1, [{0: one, 1: one}, {0: one}])
    assert isinstance(solutions, list) and isinstance(rank, int)
    assert rank == 1
    assert solutions == [{0: one}, None]
