"""In-memory span tracer that wraps gencluster's public entry points.

Tracing lives in the benchmark, not in the library: ``Tracer.install``
replaces each wrapped function in every ``gencluster`` module namespace
that holds it (so calls made through ``from .x import f`` are caught
too) and each wrapped method on its class; ``uninstall`` puts the
originals back.

Every wrapped call made during a pass becomes one span row (name,
start, end, parent, pass id, self seconds); outside a pass the wrappers
only call through, so untimed work such as the resume probe is never
counted.  Self time is the span's duration minus the time its
child spans cover.  The leaf operations in ``LEAVES`` (the group-ring
product runs 10^5 to 10^6 times per pass on ``affine-growth``) are not
kept as rows: their calls and seconds are summed per pass ("rollups")
and still subtracted from the enclosing span's self time.  Rows are kept
in memory and written out once, by ``write``.  Times come from the
clock the tracer is given.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

# name -> (module, attribute path); "Class.method" patches the class.
SPANS = {
    "laurent.mul": ("gencluster.laurent", "LaurentPolynomial.__mul__",
                    "LaurentPolynomial.__rmul__"),
    "laurent.exact_div": ("gencluster.laurent", "LaurentPolynomial.exact_div"),
    "seeds.mutate_seed": ("gencluster.seeds", "mutate_seed"),
    "seeds.exchange_matrix": ("gencluster.seeds", "ExchangeMatrix.__init__"),
    "seeds.find_skew_symmetrizer": ("gencluster.seeds", "find_skew_symmetrizer"),
    "seeds.cluster_formula": ("gencluster.seeds", "check_cluster_formula"),
    "graph.explore": ("gencluster.graph", "explore"),
    "graph.canonical_form": ("gencluster.graph", "canonical_form"),
    "graph.dedup_verify": ("gencluster.graph", "_verify_dedup_transport"),
    "graph.report": ("gencluster.graph", "ExchangeGraph.to_json_dict"),
    "graph.verify_connected": ("gencluster.graph",
                               "verify_all_connected_subgraphs"),
    "graph.verify_trichotomy": ("gencluster.graph", "verify_dvector_trichotomy"),
    "graph.verify_compatible": ("gencluster.graph", "verify_compatible_sets"),
    "graph.verify_initial_recovery": ("gencluster.graph",
                                      "verify_initial_cluster_recovery"),
    "invariants.d_recurrence": ("gencluster.invariants", "d_matrix_by_recurrence"),
    "invariants.d_laurent": ("gencluster.invariants", "d_matrix_from_laurent"),
    "invariants.cg_duality": ("gencluster.invariants", "check_cg_duality"),
    "invariants.separation": ("gencluster.invariants", "separation_reconstruct"),
    "correspondence.identification": ("gencluster.correspondence",
                                      "verify_identification"),
    "correspondence.d_equality": ("gencluster.correspondence",
                                  "verify_d_equality"),
    "matrices.det": ("gencluster.matrices", "det"),
    "config.parse": ("gencluster.config", "pattern_from_config",
                     "pair_from_config"),
    "cli.main": ("gencluster.cli", "main"),
}

# Rolled-up leaves: no row per call, only per-pass (calls, seconds).
LEAVES = {
    "semifield.gr_mul": ("gencluster.semifield", "GroupRingElement.__mul__",
                         "GroupRingElement.__rmul__"),
    "semifield.gr_exact_div": ("gencluster.semifield",
                               "GroupRingElement.exact_div"),
    "laurent.str": ("gencluster.laurent", "LaurentPolynomial.__str__"),
    "laurent.eq": ("gencluster.laurent", "LaurentPolynomial.__eq__"),
}


class Tracer:
    """Spans and work counters for the passes of one benchmark run."""

    def __init__(self, gc, clock):
        self.gc = gc
        self.clock = clock
        self.rows = []          # finished spans, see module docstring
        self.rollups = []       # (name, pass id, calls, seconds)
        self.stack = []         # ids of open spans
        self.covered = []       # per open span: seconds covered by children
        self.pass_id = None
        self.leaf_totals = {name: [0, 0.0] for name in LEAVES}
        self.counts = {}        # counters of the open pass, filled by the hooks
        self.pass_counts = {}   # pass id -> its counters
        self._patches = []

    # ---- wrappers ----

    def _span(self, name, fn, hook=None):
        rows, stack, covered, tracer = self.rows, self.stack, self.covered, self
        clock = self.clock

        def wrapper(*args, **kwargs):
            if tracer.pass_id is None:
                return fn(*args, **kwargs)
            sid = len(rows)
            rows.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            covered.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                inner = covered.pop()
                if covered:
                    covered[-1] += t1 - t0
                rows[sid] = (name, t0, t1, parent, tracer.pass_id, t1 - t0 - inner)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _leaf(self, name, fn, hook=None):
        covered, total, clock = self.covered, self.leaf_totals[name], self.clock
        tracer = self

        def wrapper(*args):
            if tracer.pass_id is None:
                return fn(*args)
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
            total[0] += 1
            total[1] += dt
            if covered:
                covered[-1] += dt
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # ---- counters fed by hooks ----

    def _bump(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _laurent_mul(self, args, result):
        a, b = args
        nb = b.nterms() if isinstance(b, self.gc.LaurentPolynomial) else 1
        self._bump("laurent.term_products", a.nterms() * nb)
        self._max_terms(result)

    def _max_terms(self, result):
        n = result.nterms()
        if n > self.counts.get("laurent.max_terms", 0):
            self.counts["laurent.max_terms"] = n

    def _gr_mul(self, args, result):
        if all(_plain_integer(x) for x in args):
            self._bump("semifield.gr_scalar_products")

    # ---- install / uninstall ----

    def install(self):
        hooks = {"laurent.mul": self._laurent_mul,
                 "laurent.exact_div": lambda args, r: self._max_terms(r),
                 "semifield.gr_mul": self._gr_mul}
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "gencluster"
                                         or name.startswith("gencluster."))]
        for table, make in ((SPANS, self._span), (LEAVES, self._leaf)):
            for name, (modname, *attrs) in table.items():
                module = sys.modules[modname]
                wrapped = {}
                for attr in attrs:
                    owner, _, member = attr.rpartition(".")
                    if owner:
                        cls = getattr(module, owner)
                        original = cls.__dict__[member]
                        if original not in wrapped:
                            wrapped[original] = make(name, original,
                                                     hooks.get(name))
                        self._patch(cls, member, wrapped[original])
                        continue
                    original = getattr(module, member)
                    wrapper = make(name, original, hooks.get(name))
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # ---- passes ----

    @contextmanager
    def traced_pass(self, pass_id):
        """Root span of one pass; leaf totals and counters restart here."""
        self.pass_id = pass_id
        self.counts = {}
        for total in self.leaf_totals.values():
            total[0], total[1] = 0, 0.0
        sid = len(self.rows)
        self.rows.append(None)
        self.stack.append(sid)
        self.covered.append(0.0)
        t0 = self.clock()
        try:
            yield
        finally:
            t1 = self.clock()
            self.stack.pop()
            inner = self.covered.pop()
            self.rows[sid] = ("pass", t0, t1, -1, pass_id, t1 - t0 - inner)
            for name, (calls, secs) in self.leaf_totals.items():
                self.rollups.append((name, pass_id, calls, secs))
            self.pass_counts[pass_id] = self.counts
            self.pass_id = None

    def pass_metrics(self, pass_id):
        """Per-layer figures of one finished pass, from its rows."""
        rows = {sid: row for sid, row in enumerate(self.rows)
                if row is not None and row[4] == pass_id}
        out = {}
        layer_self = {}
        root = next(row for row in rows.values() if row[0] == "pass")
        for sid, (name, t0, t1, parent, _, self_s) in rows.items():
            if name == "pass":
                continue
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + self_s
            # inclusive time counts outermost spans of a name only
            p = parent
            while p != -1 and rows[p][0] != name:
                p = rows[p][3]
            if p == -1:
                out[name + ".s"] = out.get(name + ".s", 0.0) + (t1 - t0)
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_s
        for name, pid, calls, secs in self.rollups:
            if pid != pass_id:
                continue
            out[name + ".calls"] = calls
            out[name + ".s"] = out[name + ".self_s"] = secs
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + secs
        wall = root[2] - root[1]
        for layer, secs in layer_self.items():
            out["layer.%s.self_s" % layer] = secs
        out["layer.bench.self_s"] = root[5]
        out["trace.wall_s"] = wall
        out["trace.unattributed_share"] = root[5] / wall
        out["trace.min_self_s"] = min(row[5] for row in rows.values())
        out.update(self.pass_counts[pass_id])
        return out

    def write(self, path):
        """Write every span row and rollup as tab-separated text."""
        with open(path, "w") as fh:
            fh.write("kind\tname\tpass\tstart_s\tend_s\tparent\tself_s\tcalls\n")
            for sid, (name, t0, t1, parent, pid, self_s) in enumerate(self.rows):
                fh.write("span\t%s\t%s\t%.9f\t%.9f\t%d\t%.9f\t1\n"
                         % (name, pid, t0, t1, parent, self_s))
            for name, pid, calls, secs in self.rollups:
                fh.write("rollup\t%s\t%s\t\t\t\t%.9f\t%d\n"
                         % (name, pid, secs, calls))


def _plain_integer(x):
    """True for an int or a group-ring element with only a constant term."""
    if isinstance(x, int):
        return True
    terms = getattr(x, "terms", None)
    if terms is None:
        return False
    items = terms()
    if len(items) > 1:
        return False
    return all(not any(exps) for exps, _ in items)
