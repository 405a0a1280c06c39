"""The three benchmark workloads: corpus, seeded inputs, passes, oracles.

A workload is built from a seed.  The seed picks, for every corpus
matrix, a simultaneous relabeling of its indices and an orientation of
its Dynkin diagram, plus the cluster-formula RNG seed.  Every
oracle below is invariant under those choices: finite-type cluster
counts, n-regularity, vertex caps, the denominator-matrix cross-check
and the recorded check reports.  Seed ``None`` gives the corpus exactly
as written here; its CLI reports must hash to the values recorded in
``oracles.json``.

A pass runs every op of a workload once.  An op fails when it raises,
exits non-zero or misses its oracle; ``OracleError`` carries the miss.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path

ORACLE_FILE = Path(__file__).parent / "oracles.json"


class OracleError(Exception):
    pass


def expect(cond, what):
    if not cond:
        raise OracleError(what)


# ---- corpus ----

def chain(n, weight=1):
    """Edges (i, j, b_ij, b_ji) of the path Dynkin diagram on n nodes."""
    return [(i, i + 1, weight, -weight) for i in range(n - 1)]


D4 = [(0, 1, 1, -1), (1, 2, 1, -1), (1, 3, 1, -1)]
D5 = [(0, 1, 1, -1), (1, 2, 1, -1), (2, 3, 1, -1), (2, 4, 1, -1)]
RANK2_AFFINE = [(0, 1, 2, -2)]   # [[0, 2], [-2, 0]]


def catalan(n):
    """Cluster count of type A_n."""
    return comb(2 * n + 2, n + 1) // (n + 2)


# name, nodes, edges, extra config fields (per-direction lists), oracle
FINITE = [
    ("A6", 6, chain(6), {}, catalan(6)),
    ("D5", 5, D5, {}, 182),
    ("B4", 4, chain(4), {"degrees": [2, 1, 1, 1]}, comb(8, 4)),
    ("C4", 4, chain(4), {"degrees": [1, 1, 1, 2]}, comb(8, 4)),
    ("G2", 2, chain(2), {"degrees": [3, 1]}, 8),
    ("principal-A4", 4, chain(4), {"principal": True}, catalan(4)),
    ("principal-B3", 3, chain(3), {"degrees": [2, 1, 1], "principal": True},
     comb(6, 3)),
]

# rank-2 infinite types, explored to a fixed vertex cap
AFFINE = [
    ("affine-b2", 2, RANK2_AFFINE, {}, 26),
    ("affine-r22", 2, chain(2), {"degrees": [2, 2]}, 17),
    ("principal-affine-b2", 2, RANK2_AFFINE, {"principal": True}, 18),
    ("principal-affine-r22", 2, chain(2), {"degrees": [2, 2], "principal": True},
     12),
]

CLUSTER_FORMULA_TRIALS = 10

GRAPH_CHECKS = {"connected-subgraph": "verify_all_connected_subgraphs",
                "d-trichotomy": "verify_dvector_trichotomy",
                "compatible-sets": "verify_compatible_sets",
                "initial-recovery": "verify_initial_cluster_recovery"}


def oriented(n, edges, rng):
    """Exchange matrix of a Dynkin diagram and the relabeling used.

    ``perm[i]`` is the new label of node i.  The orientation is the one
    written or its reverse (B -> -B).  Those two cost the same to
    explore, while mixing single edges changes the work by up to 60%
    (A6: 72k versus 116k Laurent term products), which would make runs
    at different seeds measure different amounts of work.  With ``rng``
    None the diagram is taken as written.
    """
    perm = list(range(n))
    sign = 1
    if rng is not None:
        rng.shuffle(perm)
        sign = rng.choice((1, -1))
    b = [[0] * n for _ in range(n)]
    for i, j, bij, bji in edges:
        b[perm[i]][perm[j]] = sign * bij
        b[perm[j]][perm[i]] = sign * bji
    return b, perm


def relabel(values, perm):
    out = [None] * len(values)
    for i, v in enumerate(values):
        out[perm[i]] = v
    return out


def make_config(n, edges, extra, rng):
    """Pattern config of a diagram; per-direction lists follow the relabeling."""
    b, perm = oriented(n, edges, rng)
    cfg = {"b": b}
    for key, value in extra.items():
        cfg[key] = relabel(value, perm) if isinstance(value, list) else value
    return cfg


# ---- shared plumbing ----

def bump(stats, key, amount):
    stats[key] = stats.get(key, 0) + amount


class Workload:
    """Inputs and ops of one workload at one seed.

    ``gc`` is the imported ``gencluster`` package; all library calls go
    through it so that an installed tracer sees them.  ``clock`` times
    the explore and verify phases of every op.  With ``recording`` (a
    dict shaped like ``oracles.json``) the ops store the report hashes
    and check reports there instead of comparing them with the file.
    """

    name = None
    speed_loop = None   # the clock.SPEED_LOOPS entry that tracks it best

    def __init__(self, gc, seed, workdir, clock, recording=None):
        self.gc = gc
        self.clock = clock
        self.recording = recording
        if recording is None:
            self.oracles = json.loads(ORACLE_FILE.read_text())
        self.rng = None if seed is None else random.Random(seed)
        self.workdir = workdir
        self.build()
        # A4 for the resume probe, which every workload runs
        self.a4 = gc.pattern_from_config(make_config(4, chain(4), {}, self.rng))
        self.a4_full = None

    @contextmanager
    def timed(self, stats, key):
        t0 = self.clock()
        try:
            yield
        finally:
            stats[key] = stats.get(key, 0.0) + self.clock() - t0

    def write_config(self, name, cfg):
        path = self.workdir / ("%s.json" % name)
        path.write_text(json.dumps(cfg))
        return str(path)

    def ops(self):
        """List of (op name, callable taking the per-pass stats dict)."""
        raise NotImplementedError

    def expect_recorded(self, kind, key, value):
        """``value`` must equal ``oracles.json``'s ``kind``/``key``."""
        if self.recording is not None:
            self.recording[kind][key] = value
            return
        recorded = self.oracles[kind].get(key)
        expect(value == recorded, "%s: %r, recorded %r" % (key, value, recorded))

    def resume_probe(self, stats):
        """Explore A4 to 10 vertices, resume without the cap, compare.

        The uninterrupted graph is explored once per workload.  At the
        commit that added this benchmark the resumed graph stops at 10
        vertices and claims to be complete.
        """
        gc = self.gc
        if self.a4_full is None:
            self.a4_full = gc.explore(self.a4, vertex_limit=1000)
        full = self.a4_full
        part = gc.explore(self.a4, vertex_limit=10)
        resumed = gc.explore(self.a4, depth_limit=40, vertex_limit=1000, resume=part)
        expect(resumed.complete and resumed.vertex_count() == full.vertex_count()
               and resumed.edge_count() == full.edge_count()
               and set(resumed.key_to_index) == set(full.key_to_index),
               "resume probe: resumed A4 is %s, uninterrupted is %s"
               % (resumed.summary(), full.summary()))

    def cli_explore(self, stats, name, path, pattern, cap):
        """``gencluster explore`` on a config; returns the parsed report.

        The denominator matrix of every reported vertex (read off its
        Laurent expansion) must equal the integer recurrence along its
        path; that cross-check is this workload's theorem check.
        """
        argv = ["explore", "--config", path]
        if cap is not None:
            argv += ["--max-vertices", str(cap)]
        out, err = io.StringIO(), io.StringIO()
        with self.timed(stats, "explore_s"), redirect_stdout(out), redirect_stderr(err):
            code = self.gc.cli.main(argv)
        expect(code == 0, "%s: exit code %d (%s)" % (name, code,
                                                     err.getvalue().strip()))
        text = out.getvalue()
        bump(stats, "cli.output_bytes", len(text.encode()))
        if self.rng is None:   # the corpus as written: default output is byte-stable
            self.expect_recorded("sha256", "%s/%s" % (self.name, name),
                                 hashlib.sha256(text.encode()).hexdigest())
        report = json.loads(text)
        n = pattern.n
        nv = report["vertex_count"]
        bump(stats, "graph.mutations", nv * n)   # every vertex is expanded
        bump(stats, "graph.new_vertices", nv - 1)
        mismatched = 0
        with self.timed(stats, "verify_s"):
            for v in report["vertices"]:
                path0 = tuple(k - 1 for k in v["path"])
                d = self.gc.d_matrix_by_recurrence(pattern, path0)
                if [list(c) for c in d] != v["d_matrix"]:
                    mismatched += 1
        expect(mismatched == 0, "%s: %d vertices whose Laurent D-matrix differs "
                                "from the recurrence" % (name, mismatched))
        return report


class FiniteExplore(Workload):
    """Finite types explored to completion through the CLI."""

    name = "finite-explore"
    speed_loop = "mixed"
    corpus = FINITE

    def build(self):
        self.entries = []
        for name, n, edges, extra, count in self.corpus:
            cfg = make_config(n, edges, extra, self.rng)
            path = self.write_config(name, cfg)
            pattern = self.gc.pattern_from_config(cfg)
            self.entries.append((name, path, pattern, count))

    def ops(self):
        return [(e[0], lambda stats, e=e: self.run(stats, *e))
                for e in self.entries]

    def run(self, stats, name, path, pattern, count):
        report = self.cli_explore(stats, name, path, pattern, None)
        n = pattern.n
        nv, ne = report["vertex_count"], report["edge_count"]
        expect(report["complete"], "%s: exploration not complete" % name)
        expect(nv == count, "%s: %d vertices, expected %d" % (name, nv, count))
        expect(2 * ne == nv * n, "%s: %d edges, expected %d" % (name, ne, nv * n // 2))
        degree = [0] * nv
        for e in report["edges"]:
            degree[e["u"]] += 1
            degree[e["v"]] += 1
        expect(all(d == n for d in degree), "%s: graph is not %d-regular" % (name, n))


class AffineGrowth(FiniteExplore):
    """Rank-2 infinite types explored through the CLI up to a vertex cap."""

    name = "affine-growth"
    speed_loop = "fraction"
    corpus = AFFINE

    def run(self, stats, name, path, pattern, cap):
        report = self.cli_explore(stats, name, path, pattern, cap)
        nv = report["vertex_count"]
        expect(not report["complete"], "%s: infinite type reported complete" % name)
        expect(nv == cap, "%s: %d vertices, expected the cap %d" % (name, nv, cap))
        expect(report["edge_count"] == nv - 1,
               "%s: %d edges, expected a path of %d" % (name, report["edge_count"],
                                                          nv - 1))


class TheoremChecks(Workload):
    """Complete A4 and D4 graphs and the paper's structural checks."""

    name = "theorem-checks"
    speed_loop = "fraction"

    def build(self):
        gc, rng = self.gc, self.rng
        self.graphs = {}
        self.patterns = {}
        for name, n, edges, extra in (("A4", 4, chain(4), {}),
                                      ("D4", 4, D4, {}),
                                      ("principal-A4", 4, chain(4),
                                       {"principal": True})):
            cfg = make_config(n, edges, extra, rng)
            self.patterns[name] = gc.pattern_from_config(cfg)
        # the test suite's gen3: B3 through degrees, tropical y, one z
        b, perm = oriented(3, chain(3), rng)
        gen3 = {"b": b, "degrees": relabel([2, 1, 1], perm),
                "semifield": ["u", "v"], "y": relabel(["u", "1", "v^-1"], perm),
                "z": {str(perm[0] + 1): ["u*v"]}}
        self.patterns["gen3"] = gc.pattern_from_config(gen3)
        self.gen3_principal = gc.principal_companion(self.patterns["gen3"])
        b3 = make_config(3, chain(3), {"degrees": [2, 1, 1]}, rng)
        self.pair = gc.pair_from_config({"left": b3})
        a7, perm = oriented(7, chain(7), rng)
        self.patterns["A7"] = gc.pattern_from_config({"b": a7})
        self.a7_path = tuple(perm[k] for k in range(7))
        self.formula_seed = (gc.DEFAULT_RNG_SEED if rng is None
                             else rng.randrange(1 << 30))

    def ops(self):
        ops = [("explore " + name, lambda stats, name=name: self.explore(stats, name))
               for name in ("A4", "D4")]
        for gname in ("A4", "D4"):
            for check in GRAPH_CHECKS:
                ops.append(("%s %s" % (gname, check),
                            lambda stats, g=gname, c=check: self.graph_check(
                                stats, g, c)))
        ops += [("B3 identification", self.identification),
                ("B3 d-equality", self.d_equality),
                ("A7 cluster-formula", self.cluster_formula),
                ("principal-A4 cg-duality", self.cg_duality),
                ("gen3 separation", self.separation)]
        return ops

    def explore(self, stats, name):
        pattern = self.patterns[name]
        self.graphs[name] = None   # a failed explore must not leave an old graph
        with self.timed(stats, "explore_s"):
            g = self.gc.explore(pattern, vertex_limit=2000)
        self.graphs[name] = g
        bump(stats, "graph.mutations", (g.vertex_count() - len(g.frontier)) * pattern.n)
        bump(stats, "graph.new_vertices", g.vertex_count() - 1)
        return g

    def expect_report(self, key, report):
        expect(report.passed, "%s: status %s" % (key, report.status))
        self.expect_recorded("checks", key, {
            "status": report.status, "checked": report.checked,
            "details": json.loads(json.dumps(report.details))})

    def graph_check(self, stats, gname, check):
        fn = getattr(self.gc, GRAPH_CHECKS[check])
        with self.timed(stats, "verify_s"):
            report = fn(self.graphs[gname])
        bump(stats, "checked." + check, report.checked)
        self.expect_report("%s/%s" % (gname, check), report)

    def identification(self, stats):
        with self.timed(stats, "verify_s"):
            report = self.gc.verify_identification(self.pair, 5)
        self.expect_report("B3/identification", report)

    def d_equality(self, stats):
        with self.timed(stats, "verify_s"):
            report = self.gc.verify_d_equality(self.pair, horizon=7)
        self.expect_report("B3/d-equality", report)

    def cluster_formula(self, stats):
        with self.timed(stats, "verify_s"):
            report = self.gc.check_cluster_formula(
                self.patterns["A7"], self.a7_path,
                trials=CLUSTER_FORMULA_TRIALS, rng_seed=self.formula_seed)
        expect(report.ok and report.checked == CLUSTER_FORMULA_TRIALS
               and set(report.determinants) <= {1, -1},
               "A7 cluster-formula: ok=%s checked=%d det=%s failures=%s"
               % (report.ok, report.checked, report.determinants,
                  report.failures[:2]))

    def cg_duality(self, stats):
        principal = self.patterns["principal-A4"]
        g = self.explore(stats, "principal-A4")
        expect(g.complete and g.vertex_count() == catalan(4),
               "principal-A4: %s" % g.summary())
        with self.timed(stats, "verify_s"):
            bad = [rec.index for rec in g.vertices
                   if not self.gc.check_cg_duality(principal, rec.path, rec.reached)]
        expect(not bad, "principal-A4 cg-duality fails at vertices %s" % bad[:5])

    def separation(self, stats):
        gen3 = self.patterns["gen3"]
        g = self.explore(stats, "gen3")
        expect(g.complete and g.vertex_count() == comb(6, 3),
               "gen3: %s" % g.summary())
        bad = 0
        with self.timed(stats, "verify_s"):
            for rec in g.vertices:
                for i in range(gen3.n):
                    y, x = self.gc.separation_reconstruct(gen3, self.gen3_principal,
                                                          rec.path, i)
                    bad += y != rec.reached.y[i] or x != rec.reached.x[i]
        expect(bad == 0, "gen3 separation: %d values not reconstructed" % bad)


WORKLOADS = {w.name: w for w in (FiniteExplore, AffineGrowth, TheoremChecks)}

