"""Benchmark of gencluster: exploration and theorem checks, end to end.

    python3 bench/run.py --workload finite-explore --seed 1 --seconds 30 --trace 0

Runs from a source checkout (``src/`` next to this directory) in one
process.  Set-up (import, config parsing, pattern building) is repeated
and timed; then one untimed warm-up pass runs the corpus exactly as
written, where every CLI report must match its recorded sha256;
then timed passes at ``--seed`` run until ``--seconds`` is used up.
After every pass the untimed A4 resume probe runs (see
``workloads.Workload.resume_probe``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first runs
untraced passes for a third of the time (at least one), then traced
passes, and prints the per-layer metrics and the tracing overhead, and
writes every span to ``.bench_out/``.  Every time is read from
``clock.NominalClock``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from clock import NominalClock
from tracing import Tracer
from workloads import WORKLOADS, OracleError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 15
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
KNOWN_FAILING = ("resume probe",)

END_TO_END = {"wall_s": "s", "explore_s": "s", "verify_s": "s",
              "mutations_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s",
              "error_rate": "ratio"}

# per-layer metric -> unit; times are medians over traced passes, counts
# must repeat exactly across them
PER_LAYER = {
    "semifield.gr_mul.calls": "count", "semifield.gr_mul.s": "s",
    "semifield.gr_exact_div.calls": "count", "semifield.gr_scalar_share": "ratio",
    "laurent.mul.calls": "count", "laurent.mul.self_s": "s",
    "laurent.term_products": "count", "laurent.exact_div.calls": "count",
    "laurent.exact_div.self_s": "s", "laurent.max_terms": "count",
    "laurent.str.calls": "count", "laurent.str.self_s": "s",
    "laurent.eq.calls": "count",
    "seeds.mutate_seed.calls": "count", "seeds.mutate_seed.self_s": "s",
    "seeds.exchange_matrix.calls": "count",
    "seeds.find_skew_symmetrizer.s": "s", "seeds.cluster_formula.s": "s",
    "graph.explore.s": "s", "graph.canonical_form.calls": "count",
    "graph.canonical_form.self_s": "s", "graph.mutations": "count",
    "graph.new_vertices": "count", "graph.dedup_hits": "count",
    "graph.dedup_verify.s": "s", "graph.useful_ratio": "ratio",
    "graph.verify_connected.s": "s", "graph.verify_trichotomy.s": "s",
    "graph.verify_compatible.s": "s", "graph.verify_initial_recovery.s": "s",
    "graph.verify_connected.checked": "count",
    "graph.verify_trichotomy.checked": "count",
    "graph.verify_compatible.checked": "count",
    "graph.verify_initial_recovery.checked": "count",
    "invariants.d_recurrence.calls": "count", "invariants.d_recurrence.s": "s",
    "invariants.d_laurent.s": "s", "invariants.cg_duality.s": "s",
    "invariants.separation.s": "s",
    "correspondence.identification.s": "s", "correspondence.d_equality.s": "s",
    "matrices.det.calls": "count", "matrices.det.s": "s",
    "config.parse.s": "s", "cli.render.s": "s", "cli.output_bytes": "bytes",
    "layer.semifield.self_s": "s", "layer.laurent.self_s": "s",
    "layer.seeds.self_s": "s", "layer.graph.self_s": "s",
    "layer.invariants.self_s": "s", "layer.correspondence.self_s": "s",
    "layer.matrices.self_s": "s", "layer.config.self_s": "s",
    "layer.cli.self_s": "s", "layer.bench.self_s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s", "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
}

# counts that must repeat exactly in every pass at one seed
EXACT = ("graph.mutations", "graph.new_vertices", "graph.dedup_hits",
         "laurent.term_products", "laurent.max_terms", "semifield.gr_mul.calls",
         "matrices.det.calls", "cli.output_bytes")

CHECKED = {"connected-subgraph": "graph.verify_connected.checked",
           "d-trichotomy": "graph.verify_trichotomy.checked",
           "compatible-sets": "graph.verify_compatible.checked",
           "initial-recovery": "graph.verify_initial_recovery.checked"}

# Most of a traced pass must fall inside wrapped library calls; the rest
# (oracles, glue) is the root span's own time.
MAX_UNATTRIBUTED = 0.05


def import_gencluster():
    """Import gencluster afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules
                 if m == "gencluster" or m.startswith("gencluster.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    gc = importlib.import_module("gencluster")
    importlib.import_module("gencluster.cli")
    if Path(gc.__file__).resolve().parent != SRC / "gencluster":
        raise ImportError("gencluster imported from %s, not %s" % (gc.__file__, SRC))
    return gc


class Run:
    """Attempts and failures of one benchmark run, pass by pass."""

    def __init__(self, clock):
        self.clock = clock
        self.attempted = 0
        self.failures = []

    def attempt(self, name, op, stats):
        self.attempted += 1
        try:
            op(stats)
        except OracleError as e:
            self.failures.append((name, str(e)))
        except Exception as e:  # a crashing op is a failed op, not a crashed run
            self.failures.append((name, "%s: %s" % (type(e).__name__, e)))

    def one_pass(self, workload, tracer=None, pass_id=None):
        stats = {"pass_id": pass_id}
        ctx = tracer.traced_pass(pass_id) if tracer else nullcontext()
        t0, real0 = self.clock(), time.perf_counter()
        with ctx:
            for name, op in workload.ops():
                self.attempt(name, op, stats)
        stats["wall_s"] = self.clock() - t0
        stats["real_wall_s"] = time.perf_counter() - real0
        self.attempt("resume probe", workload.resume_probe, stats)
        return stats

    def passes(self, workload, seconds, min_passes, tracer=None, first_id=0):
        """Passes until the next one would overrun ``seconds`` of real time."""
        out = []
        start = time.perf_counter()
        while True:
            out.append(self.one_pass(workload, tracer, first_id + len(out)))
            typical = statistics.median(s["real_wall_s"] for s in out)
            if (len(out) >= min_passes
                    and time.perf_counter() - start + typical > seconds):
                return out


def exact(records, key, problems):
    values = {r.get(key, 0) for r in records}
    if len(values) > 1:
        problems.append("%s differs between passes: %s" % (key, sorted(values)))


def summarize(name, values, unit):
    """Median, tail and sample count of one metric.

    With n <= 10 samples no percentile has ten samples beyond it, so the
    tail shown is the maximum.
    """
    values = sorted(values)
    return "%-34s median %-11.6g max %-11.6g n=%d %s" % (
        name, statistics.median(values), values[-1], len(values), unit)


def end_to_end(records, setup_s, run, problems):
    metrics = {}
    for key in ("wall_s", "explore_s", "verify_s", "real_wall_s"):
        values = [r.get(key, 0.0) for r in records]
        metrics[key] = statistics.median(values)
        print(summarize(key, values, "s"))
    print(summarize("setup_s", setup_s, "s"))
    for key in ("graph.mutations", "graph.new_vertices", "cli.output_bytes"):
        exact(records, key, problems)
    mutations = records[0].get("graph.mutations", 0)   # absent if every op failed
    metrics["mutations_per_s"] = mutations / metrics["explore_s"] if mutations else 0.0
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["setup_s"] = statistics.median(setup_s)
    metrics["error_rate"] = len(run.failures) / run.attempted
    return metrics


def per_layer(tracer, traced, untraced, problems):
    rows = []
    for rec in traced:
        m = tracer.pass_metrics(rec["pass_id"])
        m["graph.mutations"] = rec.get("graph.mutations", 0)
        m["graph.new_vertices"] = rec.get("graph.new_vertices", 0)
        m["cli.output_bytes"] = rec.get("cli.output_bytes", 0)
        for check, key in CHECKED.items():
            m[key] = rec.get("checked." + check, 0)
        m["graph.dedup_hits"] = m.get("graph.dedup_verify.calls", 0)
        m["graph.useful_ratio"] = m["graph.new_vertices"] / max(1, m["graph.mutations"])
        m["semifield.gr_scalar_share"] = (
            m.get("semifield.gr_scalar_products", 0)
            / max(1, m.get("semifield.gr_mul.calls", 0)))
        m["cli.render.s"] = m.get("graph.report.s", 0.0) + m.get("cli.main.self_s", 0.0)
        rows.append(m)
    for key in EXACT:
        exact(rows, key, problems)
    for m in rows:
        if m["trace.unattributed_share"] > MAX_UNATTRIBUTED:
            problems.append("%.3f of a traced pass is outside wrapped calls"
                            % m["trace.unattributed_share"])
        if m["trace.min_self_s"] < -1e-9:   # a child counted twice
            problems.append("a span has self time %.3g s" % m["trace.min_self_s"])
    metrics = {}
    for key, unit in PER_LAYER.items():
        values = [m.get(key, 0) for m in rows]
        metrics[key] = (statistics.median(values) if unit in ("s", "ratio")
                        else values[0])
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced_wall
    print(summarize("untraced wall_s", [r["wall_s"] for r in untraced], "s"))
    print(summarize("traced wall_s", [m["trace.wall_s"] for m in rows], "s"))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cls = WORKLOADS[args.workload]
    workdir = OUT / ("%s-seed%d" % (args.workload, args.seed))
    (workdir / "default").mkdir(parents=True, exist_ok=True)

    clock = NominalClock(cls.speed_loop)
    with clock.sampling():
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = clock()
            gc = import_gencluster()
            workload = cls(gc, args.seed, workdir, clock)
            setup_s.append(clock() - t0)

        # warm-up at the corpus as written: byte-stable reports
        default = cls(gc, None, workdir / "default", clock)
        run = Run(clock)
        run.one_pass(default)

        problems = []
        if args.trace:
            untraced = run.passes(workload, args.seconds / 3, 1)
            tracer = Tracer(gc, clock)
            tracer.install()
            try:
                traced = run.passes(workload, args.seconds - args.seconds / 3,
                                    MIN_TRACED_PASSES, tracer, first_id=1)
            finally:
                tracer.uninstall()
            metrics = per_layer(tracer, traced, untraced, problems)
            units = PER_LAYER
        else:
            records = run.passes(workload, args.seconds, MIN_PASSES)
            metrics = end_to_end(records, setup_s, run, problems)
            units = END_TO_END
    print("clock: %d speed samples, mean factor %.4f nominal s per real s"
          % (clock.samples, clock.mean_factor()))
    if args.trace:
        tracer.write(OUT / ("spans-%s-seed%d.tsv" % (args.workload, args.seed)))

    for name, why in run.failures:
        print("failed op: %s: %s" % (name, why))
    for why in problems:
        print("problem: %s" % why)
    unexpected = [f for f in run.failures if f[0] not in KNOWN_FAILING]
    result = {"correct": not unexpected and not problems,
              "attempted": run.attempted,
              "failed": len(run.failures),
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
