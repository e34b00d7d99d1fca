"""Time ``kdirac`` to its Cartan verdicts on one named workload.

Usage, from the root of the repository:

    python3 bench/run.py --workload cartan-k2 --seed 1 --seconds 24 --trace 0

The run imports the package from ``src/``, builds the workload's systems
several times (set-up), then runs whole rounds of the workload's operations
for about ``--seconds`` seconds and checks every output apart from the
package. Every time is scaled to a reference host speed (see hostclock.py).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``,
``wall_s`` and ``cpu_s`` (per operation the median over rounds, summed over
the round) and ``peak_rss_mb``. With ``--trace 1`` untraced and traced rounds
alternate, the metrics are the per-module ones, and the spans of the last
traced round are written to ``bench/out/<workload>.trace.json``.
"""

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
NAMES = ("cartan-k2", "greedy-k3", "random-flag", "extend-lift")


class Raised:
    """An operation that raised instead of returning a result."""

    def __init__(self, exc):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Verifier:
    """Checks each round's results.

    The first round is checked in full. A later result equal to the first
    round's keeps that verdict; one that differs is checked in full again.
    """

    def __init__(self, plan):
        self.plan = plan
        self.first = None
        self.first_problems = None

    def failed(self, results):
        ops, groups = self.plan.ops, self.plan.groups
        changed = [
            self.first is None or isinstance(res, Raised) or res != self.first[i]
            for i, res in enumerate(results)
        ]
        problems = [
            self._check(ops[i], res) if changed[i] else self.first_problems[i]
            for i, res in enumerate(results)
        ]
        for members, check in groups:
            if any(changed[i] for i in members):
                group = [results[i] for i in members]
                if any(isinstance(r, Raised) for r in group):
                    continue
                bad = check(group)
                if bad:
                    for i in members:
                        problems[i] = problems[i] + [f"group: {p}" for p in bad]
        if self.first is None:
            self.first, self.first_problems = results, problems
            for (name, _, _), bad in zip(ops, problems):
                for p in bad:
                    print(f"FAILED {name}: {p}", file=sys.stderr)
        return sum(1 for bad in problems if bad)

    @staticmethod
    def _check(op, result):
        if isinstance(result, Raised):
            return [result.text]
        try:
            return op[2](result)
        except Exception as exc:  # a malformed result fails its check
            return [f"check raised {Raised(exc).text}"]


def _guarded(thunk):
    try:
        return thunk()
    except Exception as exc:  # counted as a failed operation
        return Raised(exc)


def run_round(plan, clock, tracer=None):
    """Run every operation once; returns per-operation scaled wall and CPU
    times and the results. Span times are scaled like their operation's."""
    walls, cpus, results = [], [], []
    for _name, thunk, _check in plan.ops:
        mark = tracer.mark() if tracer is not None else None
        result, wall, cpu, factor = clock.run(lambda: _guarded(thunk))
        if tracer is not None:
            tracer.scale_since(mark, factor)
        results.append(result)
        walls.append(wall)
        cpus.append(cpu)
    return walls, cpus, results


class Rounds:
    """Per-operation times of the rounds run in one mode (traced or not)."""

    def __init__(self):
        self.walls, self.cpus, self.snaps = [], [], []

    @staticmethod
    def typical(times):
        """Sum over operations of each operation's median time."""
        return sum(statistics.median(per_op) for per_op in zip(*times))


def measure(plan, verifier, seconds, clock, tracer=None):
    """Run whole rounds while the next is expected to end within the budget.

    At least two rounds run. With a tracer, untraced and traced rounds
    alternate. Returns (untraced Rounds, traced Rounds, attempted, failed).
    """
    plain, traced = Rounds(), Rounds()
    costs = []
    attempted = failed = 0
    start = perf_counter()
    while True:
        use = tracer if tracer is not None and len(costs) % 2 else None
        began = perf_counter()
        if use is not None:
            use.reset()
            use.install()
        try:
            walls, cpus, results = run_round(plan, clock, use)
        finally:
            if use is not None:
                use.uninstall()
        into = plain if use is None else traced
        into.walls.append(walls)
        into.cpus.append(cpus)
        if use is not None:
            into.snaps.append((dict(use.self_s), use.counts()))
        attempted += len(results)
        failed += verifier.failed(results)
        costs.append(perf_counter() - began)
        spent = perf_counter() - start
        if len(costs) >= 2 and spent + statistics.median(costs) > seconds:
            return plain, traced, attempted, failed


def setup(build, clock, tracer):
    """Build the workload SETUP_REPEATS times; the last build is used.
    Returns it, the scaled build times and, when traced, each build's
    inclusive span times."""
    times, builds = [], []
    for _ in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            ctx, wall, _cpu, factor = clock.run(build)
        finally:
            if tracer is not None:
                tracer.uninstall()
        times.append(wall)
        if tracer is not None:
            builds.append({k: v * factor for k, v in tracer.total_s.items()})
    return ctx, times, builds


def layer_metrics(traced, builds, overhead):
    """Per-module metrics: self times medians over traced rounds, build times
    medians over traced set-ups, counts and sizes those of one round."""
    values = {"trace.overhead_s": overhead}
    for label in tracing.Tracer.labels():
        values[f"{label}.self_s"] = statistics.median(
            s[0].get(label, 0.0) for s in traced.snaps)
        values[f"{label}.s"] = statistics.median(b.get(label, 0.0) for b in builds)
    counts = traced.snaps[0][1]
    if any(s[1] != counts for s in traced.snaps):
        print("traced rounds disagree on counts", file=sys.stderr)
    values.update(counts)
    return {name: (values[name], unit) for name, unit in tracing.PER_LAYER}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "kdirac").is_dir():
        print(f"no kdirac sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))

    with HostClock() as clock:
        workloads, import_s, _, _ = clock.run(lambda: importlib.import_module("workloads"))
        build, make_plan = workloads.WORKLOADS[args.workload]
        tracer = tracing.Tracer() if args.trace else None
        ctx, build_times, builds = setup(build, clock, tracer)
        plan = make_plan(ctx, args.seed)
        for p in plan.problems:
            print(f"REFERENCE {p}", file=sys.stderr)
        plain, traced, attempted, failed = measure(plan, Verifier(plan), args.seconds,
                                                   clock, tracer)
    print(f"{len(plain.walls)} untraced and {len(traced.walls)} traced rounds; scaled "
          f"round wall times {[round(sum(w), 3) for w in plain.walls]}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": (import_s + statistics.median(build_times), "s"),
            "wall_s": (Rounds.typical(plain.walls), "s"),
            "cpu_s": (Rounds.typical(plain.cpus), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        overhead = Rounds.typical(traced.walls) - Rounds.typical(plain.walls)
        metrics = layer_metrics(traced, builds, overhead)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write_spans(out / f"{args.workload}.trace.json")

    print(json.dumps({
        "correct": not plan.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
