#!/usr/bin/env python3
"""levitype benchmark: one seeded workload, timed end to end or traced.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload standard --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout; nothing is installed.
One process and one thread send queries back to back (a closed loop), in
whole rounds of the workload's fixed operation list, until ``--seconds``
have passed.  Times are reported at a reference machine speed (see
REF_NOMINAL_S).  Outputs are then checked against independent sympy
computations (``bench/checks.py``); later rounds must reproduce the first
round's outputs exactly.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` a first untraced round warms
up, then rounds under the per-layer tracer (``bench/tracing.py``) alternate
with untraced ones, and the per-layer metrics are printed instead.  Both
write a result file, and the traced run a span file, under ``bench/out/``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction as F
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5

# The machines this runs on are shared, and their speed drifts by up to a
# factor of two over tens of seconds.  Each timed interval is therefore
# bracketed by calls of a fixed pure-Python kernel (see Speed) and reported
# as
#     wall time * REF_NOMINAL_S / (median of nearby kernel times),
# the time the interval would have taken at the reference speed.
# REF_NOMINAL_S is the kernel's time on the reference machine (Python
# 3.11.7, 2 cores) in a quiet phase.  The raw wall times are kept in the
# result file next to the reported ones.
REF_NOMINAL_S = 0.012
SPEED_WINDOW = 8

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402  (the benchmark's own module, no levitype)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def git_sha() -> str:
    """The checkout's commit read from .git, or "unknown" outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


# ---------------------------------------------------------------------------
# machine-speed reference


def _kernel_terms(seed):
    """50 fixed terms of degree 1..4 in 6 variables with small rationals."""
    rng = random.Random(seed)
    terms = {}
    while len(terms) < 50:
        e = [0] * 6
        for _ in range(rng.randint(1, 4)):
            e[rng.randrange(6)] += 1
        terms[tuple(e)] = F(rng.randint(1, 9) * rng.choice((-1, 1)),
                            rng.randint(1, 9))
    return sorted(terms.items())


_KERNEL_A, _KERNEL_B = _kernel_terms(1), _kernel_terms(2)


def reference_kernel():
    """Fixed work shaped like the program's series product: exponent tuples
    added through zip, Fraction products accumulated in a dict of about a
    thousand entries.  A smaller kernel that stays in the first-level cache
    slows down more than the program when the machine is busy.  It does not
    touch levitype."""
    out = {}
    for ea, ca in _KERNEL_A:
        for eb, cb in _KERNEL_B:
            key = tuple(x + y for x, y in zip(ea, eb))
            acc = out.get(key)
            prod = ca * cb
            if acc is None:
                out[key] = prod
            else:
                acc = acc + prod
                if acc == 0:
                    del out[key]
                else:
                    out[key] = acc
    return out


class Speed:
    """Reference-kernel samples taken between timed intervals.

    ``sample()`` is called before the first interval and after every one;
    an interval is scaled by the median of the SPEED_WINDOW samples around
    it, which follows the machine's drift while smoothing the noise of
    single kernel timings.
    """

    def __init__(self):
        reference_kernel()  # warm-up
        self.samples = []

    def sample(self):
        """Time one kernel call; returns the index of the new sample."""
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples) - 1

    def scale(self, index):
        """Factor for the interval that starts after sample ``index``."""
        lo = max(0, index + 1 - SPEED_WINDOW // 2)
        window = self.samples[lo:index + 1 + SPEED_WINDOW // 2]
        return REF_NOMINAL_S / statistics.median(window)


# ---------------------------------------------------------------------------
# set-up: import levitype from the checkout and build every problem


def import_levitype():
    """A fresh import of levitype from ``src/`` of this checkout."""
    for name in [k for k in sys.modules
                 if k == "levitype" or k.startswith("levitype.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lev = importlib.import_module("levitype")
    importlib.import_module("levitype.cli")
    if Path(lev.__file__).resolve().parent != SRC / "levitype":
        fail(f"levitype was imported from {lev.__file__}, not from {SRC}")
    return lev


def build_cli(lev, wl):
    """ProblemSpecs of every query, each problem built once by the library."""
    cli, Q = lev.cli, lev.Q
    specs = []
    for query in wl.queries:
        p = wl.problems[query.problem]
        jspec = "standard" if p.j_rows is None else (
            "matrix", [list(row) for row in p.j_rows])
        origin = tuple(Q(0) for _ in range(2 * p.n))
        points = tuple(tuple(Q(c) for c in pt) for pt in query.points)
        specs.append(cli.ProblemSpec(
            p.n, p.phi, jspec, points[0] if points else origin, p.cap,
            p.k_max, "exact_staged", query.command, points))
    first = {}
    for spec, query in zip(specs, wl.queries):
        first.setdefault(query.problem, spec)
    for spec in first.values():
        cli.build_problem(spec)
    return specs


def build_library(lev, wl):
    """(m, j) of every higher-levi problem, parsed by the library."""
    out = []
    for p in wl.problems:
        phi = lev.parse_expression(p.phi, p.n, cap=p.cap)
        entries = [[lev.parse_expression(e, p.n, cap=p.cap) for e in row]
                   for row in p.j_rows]
        out.append((lev.Hypersurface(p.n, phi), lev.ACStructure(p.n, entries)))
    return out


def setup(wl, speed):
    """Import levitype and build the workload.

    Repeated SETUP_REPEATS times from a fresh import.  Returns levitype,
    the round (one callable per operation) and the set-up times, raw and
    scaled to the reference speed.
    """
    raw, marks = [], []
    mark = speed.sample()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lev = import_levitype()
        if wl.queries:
            specs = build_cli(lev, wl)
        else:
            built = build_library(lev, wl)
        raw.append(time.perf_counter() - t0)
        marks.append(mark)
        mark = speed.sample()
    scaled = [t * speed.scale(k) for t, k in zip(raw, marks)]
    # functions are looked up at call time so that a traced run sees the
    # wrapped names
    if wl.queries:
        ops = [lambda s=s: lev.cli.run_command(s) for s in specs]
    else:
        def instance(inst):
            m, j = built[inst.problem]
            values = {}
            for s in range(inst.order - 1):
                for p in range(s + 1):
                    values[(p, s - p)] = lev.higher_levi(
                        m, j, inst.x_jet[:s + 1], p, s - p)
            u = lev.propagate_cr_jet(inst.x_jet, j, order=inst.order)
            return values, u, lev.compose_phi_u(m, u).series

        ops = [lambda i=i: instance(i) for i in wl.instances]
    return lev, ops, raw, scaled


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs whole rounds of ``ops`` and keeps the first round's outputs."""

    def __init__(self, ops, speed):
        self.ops = ops
        self.speed = speed
        self.first = None
        self.raw = []          # wall time of every operation
        self.marks = []        # index of the speed sample before each
        self.rounds = []       # (first, end) operation index of each round
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def round(self, tracer=None):
        outputs = []
        start = len(self.raw)
        mark = self.speed.sample()
        for idx, op in enumerate(self.ops):
            if tracer is not None:
                tracer.begin_query(self.attempted + 1)
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = op()
            except Exception:  # a failed operation is counted, not fatal
                out = None
                self.failed += 1
                traceback.print_exc(file=sys.stderr)
            self.raw.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_query()
            self.marks.append(mark)
            mark = self.speed.sample()
            if self.first is None:
                outputs.append(out)
            elif out is not None and out != self.first[idx]:
                self.mismatches.append(idx)
        self.rounds.append((start, len(self.raw)))
        if self.first is None:
            self.first = outputs

    def scaled(self, first=0, end=None):
        """Operation times at the reference speed."""
        return [t * self.speed.scale(k) for t, k in
                zip(self.raw[first:end], self.marks[first:end])]

    def run_for(self, seconds):
        """Whole rounds until ``seconds`` of wall time have passed."""
        t0 = time.perf_counter()
        while True:
            self.round()
            if time.perf_counter() - t0 >= seconds:
                return


# ---------------------------------------------------------------------------
# checking


def check_outputs(wl, outputs, mismatches):
    """Independent checks of the first round; returns a list of failures."""
    import checks  # sympy is loaded only here, after all timing

    failures = [f"op {i}: output differs between rounds"
                for i in sorted(set(mismatches))]
    for idx, (op, out) in enumerate(zip(wl.queries or wl.instances,
                                        outputs)):
        if out is None:
            continue
        problem = wl.problems[op.problem]
        try:
            if wl.queries:
                checks.check_query(problem, op.command, out["result"],
                                   op.points)
            else:
                values, u, trace = out
                disk = [dict(c.terms()) for c in u.components]
                checks.check_higher_levi(problem, op.x_jet, op.order,
                                         values, disk, dict(trace.terms()))
        except checks.CheckError as exc:
            failures.append(f"op {idx} ({problem.name}): {exc}")
    return failures


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "levitype" / "__init__.py").is_file():
        fail(f"no levitype sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    # levitype is imported as an installed package is: from bytecode.
    # Compiling it here, outside every timed region, keeps the source
    # compiler out of setup_s whether or not PYTHONDONTWRITEBYTECODE is set.
    compileall.compile_dir(str(SRC / "levitype"), quiet=1)
    OUT.mkdir(exist_ok=True)

    wl = workloads.make_workload(args.workload, args.seed)
    speed = Speed()
    lev, ops, setup_raw, setup_scaled = setup(wl, speed)
    loop = Loop(ops, speed)
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "backend": lev.rational.BACKEND,
        "git_sha": git_sha(),
        "cores": os.cpu_count(),
        "ops_per_round": len(ops),
        "ref_nominal_s": REF_NOMINAL_S,
    }

    if args.trace:
        import tracing

        # the first round warms up and keeps the outputs; then traced and
        # untraced rounds alternate, and the overhead compares the two
        loop.round()
        tracer = tracing.Tracer()
        traced_rounds, untraced_rounds = [], []
        t0 = time.perf_counter()
        while not traced_rounds or time.perf_counter() - t0 < args.seconds:
            tracer.install()
            try:
                loop.round(tracer)
            finally:
                tracer.uninstall()
            traced_rounds.append(loop.rounds[-1])
            loop.round()
            untraced_rounds.append(loop.rounds[-1])
        rounds = len(traced_rounds)
        untraced = statistics.median(sum(loop.scaled(*r))
                                     for r in untraced_rounds)
        traced = statistics.median(sum(loop.scaled(*r))
                                   for r in traced_rounds)
        env["rounds"] = rounds
        env["untraced_round_s"] = untraced
        env["traced_round_s"] = traced
        env["tracing_overhead"] = traced / untraced - 1
        factor = statistics.median(
            speed.scale(loop.marks[i])
            for first, end in traced_rounds for i in range(first, end))
        metrics = tracer.metrics(rounds, factor)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl", env)
    else:
        loop.run_for(args.seconds)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        scaled = loop.scaled()
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "query_s_p50": (statistics.median(scaled), "s"),
            "queries_per_s": (loop.attempted / sum(scaled), "1/s"),
            "peak_rss_mib": (peak_kib / 1024, "MiB"),
        }
        env["rounds"] = len(loop.rounds)
        env["raw_setup_s"] = statistics.median(setup_raw)
        env["raw_query_s_p50"] = statistics.median(loop.raw)
        env["raw_queries_per_s"] = loop.attempted / sum(loop.raw)
        env["ref_median_s"] = statistics.median(speed.samples)

    t0 = time.perf_counter()
    failures = check_outputs(wl, loop.first, loop.mismatches)
    env["check_s"] = time.perf_counter() - t0
    for line in failures:
        print(f"bench: check failed: {line}", file=sys.stderr)

    result = {
        "correct": not failures,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    samples = {"op_scaled_s": loop.scaled(), "op_raw_s": loop.raw}
    (OUT / name).write_text(json.dumps({"env": env, **result, **samples}))
    print(json.dumps({"env": env}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
