r"""Exchange graphs: canonical seeds, exploration, theorem checkers.

Two seeds are equivalent when a permutation simultaneously relabels the
cluster, the coefficients and both indices of the exchange matrix.  The
canonical form sorts the cluster by its (faithful, deterministic) text
rendering, so equivalent seeds canonicalize identically; the dedup key
additionally carries the exchange degrees and interior coefficients
transported along the sort, which equivalent seeds of one pattern must
agree on.  Every dedup hit re-verifies the full transport on the actual
seeds and raises InconsistentDegreeTransportError if the degree data
fails to follow the permutation (that would be an engine bug, not data).

The graph is a transition table: ``succ[v][k] = (w, sigma)`` says that
mutating vertex v's seed in direction k gives vertex w's seed relabeled
by sigma (position i of the mutated seed is position sigma[i] at w), and
``None`` marks a slot not explored yet.  Exploration is a deterministic
breadth-first walk (FIFO queue, ascending directions) with optional
depth and vertex limits.  A limit leaves slots empty: the graph is
complete exactly when every slot is filled, and its frontier is the
vertices with an empty slot.  Resuming refills exactly the empty slots,
in the order an uninterrupted walk would have filled them, so a resumed
graph equals the one explored in one go under the final limits.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

from . import matrices as mat
from .errors import InconsistentDegreeTransportError, UnknownVariableError
from .invariants import d_matrix_from_laurent, d_recurrence_step
from .seeds import ClusterPattern, MutationPair, Seed, mutate_seed


@dataclass(frozen=True)
class CanonicalSeed:
    """The dedup key of a seed, the sort behind it and its renderings.

    ``perm`` maps canonical positions to original indices, so the
    canonical cluster is ``x[perm[0]], x[perm[1]], ...``; ``serials``
    holds ``str(x[i])`` in the seed's own order.
    """

    key: str
    perm: tuple
    serials: tuple


def canonical_form(seed: Seed, pair: MutationPair) -> CanonicalSeed:
    """Sort the cluster by serialization; build the dedup key.

    Cluster variables of one seed form a free generating set and are
    pairwise distinct, so the sort has no ties; a tie means the engine
    produced a broken seed and is a hard error.
    """
    n = seed.n
    serials = tuple(str(v) for v in seed.x)
    if len(set(serials)) != n:
        raise RuntimeError("cluster variables of a single seed must be distinct")
    perm = tuple(sorted(range(n), key=serials.__getitem__))
    rows = tuple(tuple(seed.B.rows[i][j] for j in perm) for i in perm)
    key = "B=%r;x=%r;y=%r;r=%r;z=%r" % (
        rows,
        tuple(serials[i] for i in perm),
        tuple(str(seed.y[i]) for i in perm),
        tuple(pair.degrees[i] for i in perm),
        tuple(tuple(str(z) for z in pair.frozen[i]) for i in perm),
    )
    return CanonicalSeed(key, perm, serials)


def key_hash(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class VertexRecord:
    index: int
    canon: CanonicalSeed
    reached: Seed          # the seed exactly as produced along `path`
    path: tuple            # 0-based tree address of the representative


@dataclass
class ExchangeGraph:
    pattern: ClusterPattern
    vertices: list = field(default_factory=list)
    key_to_index: dict = field(default_factory=dict)
    succ: list = field(default_factory=list)   # succ[v][k] = (w, sigma) or None

    @property
    def frontier(self):
        """Vertices with an unexplored direction, in index order."""
        return tuple(v for v, row in enumerate(self.succ) if None in row)

    @property
    def complete(self):
        return not self.frontier

    def vertex_count(self):
        return len(self.vertices)

    def _edge_labels(self):
        """Sorted ((u, v), directions) with u <= v: each edge with every
        direction realizing it at either endpoint (in its own indexing)."""
        labels = {}
        for v, row in enumerate(self.succ):
            for k, slot in enumerate(row):
                if slot is not None:
                    labels.setdefault(tuple(sorted((v, slot[0]))), set()).add(k)
        return sorted((e, sorted(ks)) for e, ks in labels.items())

    def edge_count(self):
        return len(self._edge_labels())

    def summary(self):
        return "%d vertices, %d edges, %s" % (
            self.vertex_count(), self.edge_count(),
            "complete" if self.complete else "truncated")

    def to_json_dict(self, include_seeds=True):
        verts = []
        for rec in self.vertices:
            entry = {"index": rec.index,
                     "key_hash": key_hash(rec.canon.key),
                     "path": [k + 1 for k in rec.path]}
            if include_seeds:
                entry.update(rec.reached.render())
                entry["d_matrix"] = [list(c) for c in
                                     d_matrix_from_laurent(rec.reached)]
            verts.append(entry)
        edges = [{"u": u, "v": v, "directions": [k + 1 for k in ks]}
                 for (u, v), ks in self._edge_labels()]
        return {"vertex_count": self.vertex_count(),
                "edge_count": len(edges),
                "complete": self.complete,
                "vertices": verts,
                "edges": edges}

    def to_dot(self, label_dmatrix=False):
        lines = ["graph exchange {"]
        for rec in self.vertices:
            label = key_hash(rec.canon.key)
            if label_dmatrix:
                d = d_matrix_from_laurent(rec.reached)
                label += r"\nD=%s" % (str([list(c) for c in d]),)
            lines.append('  v%d [label="%s"];' % (rec.index, label))
        for (u, v), ks in self._edge_labels():
            text = ",".join(str(k + 1) for k in ks)
            lines.append('  v%d -- v%d [label="%s"];' % (u, v, text))
        lines.append("}")
        return "\n".join(lines) + "\n"


def _verify_dedup_transport(stored: VertexRecord, new_seed: Seed,
                            new_canon: CanonicalSeed, pair: MutationPair):
    """Re-verify the seed equivalence behind a dedup hit.

    Returns the composed permutation sigma, which sends index i of the
    new seed to the index of the stored representative holding the same
    variable; the whole seed triple and the degree data must follow it.
    """
    n = new_seed.n
    perm_s = stored.canon.perm
    perm_n = new_canon.perm
    sigma = [0] * n
    for p in range(n):
        sigma[perm_n[p]] = perm_s[p]
    for i in range(n):
        j = sigma[i]
        if new_seed.x[i] != stored.reached.x[j] or new_seed.y[i] != stored.reached.y[j]:
            raise RuntimeError("canonical key collision: seeds are not equivalent")
        if (pair.degrees[i] != pair.degrees[j]
                or pair.frozen[i] != pair.frozen[j]):
            raise InconsistentDegreeTransportError(
                "equivalent seeds fail to transport exchange degrees along %r"
                % (tuple(sigma),))
    for i in range(n):
        for j in range(n):
            if new_seed.B.rows[i][j] != stored.reached.B.rows[sigma[i]][sigma[j]]:
                raise RuntimeError("canonical key collision: matrices differ")
    return tuple(sigma)


def explore(pattern: ClusterPattern, depth_limit=None, vertex_limit=None,
            resume: ExchangeGraph = None) -> ExchangeGraph:
    """Deterministic BFS over seeds up to equivalence.

    At least one of depth_limit / vertex_limit must be set (unbounded
    search diverges on infinite-type patterns).  Pass ``resume`` to fill
    the empty slots of an earlier truncated graph under new limits.
    """
    if depth_limit is None and vertex_limit is None:
        raise ValueError("set depth_limit or vertex_limit (or both)")
    if (depth_limit is not None and depth_limit < 0
            or vertex_limit is not None and vertex_limit < 1):
        raise ValueError("need depth_limit >= 0 and vertex_limit >= 1")
    pair = pattern.pair
    n = pattern.n
    identity = tuple(range(n))

    g = ExchangeGraph(pattern)
    if resume is not None:
        if resume.pattern != pattern:
            raise ValueError("resume graph belongs to a different pattern")
        g.vertices = list(resume.vertices)
        g.key_to_index = dict(resume.key_to_index)
        g.succ = [list(row) for row in resume.succ]
        queue = deque(resume.frontier)
    else:
        init = pattern.initial_seed()
        canon = canonical_form(init, pair)
        g.vertices.append(VertexRecord(0, canon, init, ()))
        g.key_to_index[canon.key] = 0
        g.succ.append([None] * n)
        queue = deque([0])

    while queue:
        vi = queue.popleft()
        rec = g.vertices[vi]
        if depth_limit is not None and len(rec.path) >= depth_limit:
            continue
        row = g.succ[vi]
        for k in range(n):
            if row[k] is not None:
                continue
            new_seed = mutate_seed(rec.reached, pair, k)
            canon = canonical_form(new_seed, pair)
            j = g.key_to_index.get(canon.key)
            if j is None:
                if vertex_limit is not None and len(g.vertices) >= vertex_limit:
                    continue
                j = len(g.vertices)
                g.vertices.append(VertexRecord(j, canon, new_seed, rec.path + (k,)))
                g.key_to_index[canon.key] = j
                g.succ.append([None] * n)
                queue.append(j)
                sigma = identity
            else:
                sigma = _verify_dedup_transport(g.vertices[j], new_seed, canon, pair)
            row[k] = (j, sigma)
    return g


# ---- verification reports ----


@dataclass
class VerificationReport:
    name: str
    passed: bool
    complete: bool
    checked: int
    violations: list
    details: dict = field(default_factory=dict)

    @property
    def status(self):
        if not self.passed:
            return "fail"
        return "pass" if self.complete else "no-counterexample-within-horizon"

    def to_json_dict(self):
        return {"check": self.name,
                "status": self.status,
                "complete": self.complete,
                "checked": self.checked,
                "violations": self.violations,
                "details": self.details}


class _Membership:
    """The variables of a graph, read off the renderings its canonical
    forms stored: ids in order of first appearance, the ids at each
    vertex (``var_at``), the vertices holding each rendering
    (``where``), the undirected adjacency of the transition table and
    the compatibility graph: bit b of the int ``nbr[a]`` is set when
    the distinct variables a and b share a cluster."""

    def __init__(self, graph: ExchangeGraph):
        self.nv = graph.vertex_count()
        self.ids = {}
        self.where = {}
        self.var_at = []
        for rec in graph.vertices:
            for s in rec.canon.serials:
                self.where.setdefault(s, set()).add(rec.index)
            self.var_at.append(tuple(self.ids.setdefault(s, len(self.ids))
                                     for s in rec.canon.serials))
        self.adj = [set() for _ in range(self.nv)]
        for v, row in enumerate(graph.succ):
            for w, _ in filter(None, row):
                self.adj[v].add(w)
                self.adj[w].add(v)
        self.nbr = [0] * len(self.ids)
        for row in self.var_at:
            for a in row:
                self.nbr[a] |= sum(1 << b for b in row if b != a)

    def serials(self, J):
        out = [str(item) for item in J]
        for s in out:
            if s not in self.where:
                raise UnknownVariableError(s)
        return frozenset(out)

    def hits(self, want):
        """Sorted indices of the vertices whose clusters contain ``want``."""
        if not want:
            return list(range(self.nv))
        return sorted(set.intersection(*(self.where[s] for s in want)))

    def connected_report(self, want):
        hits = self.hits(want)
        hitset, seen, stack = set(hits), set(hits[:1]), hits[:1]
        while stack:
            for w in self.adj[stack.pop()] & hitset - seen:
                seen.add(w)
                stack.append(w)
        connected = len(seen) == len(hits)
        violations = [] if connected else [{"subset": sorted(want),
                                            "vertices": hits}]
        return connected, violations, {"subset": sorted(want), "vertices": hits}


def verify_connected_subgraph(graph: ExchangeGraph, J) -> VerificationReport:
    """The vertices whose clusters contain every member of J must induce
    a connected subgraph (membership by canonical serialization)."""
    index = _Membership(graph)
    connected, violations, details = index.connected_report(index.serials(J))
    return VerificationReport("connected-subgraph", connected, graph.complete,
                              1, violations, details)


def verify_all_connected_subgraphs(graph: ExchangeGraph) -> VerificationReport:
    """Run the connectivity check for every subset of every cluster."""
    index = _Membership(graph)
    subsets = {frozenset(sub) for rec in graph.vertices
               for r in range(graph.pattern.n + 1)
               for sub in combinations(rec.canon.serials, r)}
    violations = []
    for J in sorted(subsets, key=lambda s: (len(s), sorted(s))):
        violations.extend(index.connected_report(J)[1])
    return VerificationReport("connected-subgraph", not violations,
                              graph.complete, len(subsets), violations,
                              {"subsets_checked": len(subsets)})


def compatibility(graph: ExchangeGraph, a, b) -> bool:
    """True when the two variables occur together in some cluster."""
    index = _Membership(graph)
    return bool(index.hits(index.serials([a, b])))


def _d_matrices_from(graph: ExchangeGraph, base: int):
    """D-matrix of every vertex against the cluster at ``base``: one BFS
    over the table, one recurrence step per tree edge, each result
    relabeled into the target vertex's own indexing."""
    degrees = graph.pattern.pair.degrees
    D = [None] * graph.vertex_count()
    D[base] = mat.identity(graph.pattern.n, -1)
    queue = deque([base])
    while queue:
        u = queue.popleft()
        b = graph.vertices[u].reached.B
        for k, (w, sigma) in enumerate(graph.succ[u]):
            if D[w] is None:
                cols = d_recurrence_step(D[u], b, degrees, k)
                # column i lands at position sigma[i] of w
                D[w] = tuple(c for _, c in sorted(zip(sigma, cols)))
                queue.append(w)
    return D


def verify_dvector_trichotomy(graph: ExchangeGraph) -> VerificationReport:
    """Across every choice of base cluster, the denominator-vector entry
    of a variable against a base variable depends only on that pair of
    variables and is -1, 0 or positive according to equality,
    compatibility or incompatibility.

    Requires a completed exploration (compatibility must be exact).
    D-vectors against each base vertex come from the integer recurrence
    run over a breadth-first tree of the transition table rooted there;
    from the root that tree is the exploration's own, and those
    D-matrices are re-checked against the Laurent expansions here.
    """
    if not graph.complete:
        raise ValueError("trichotomy check needs a completed exploration")
    index = _Membership(graph)
    var_at = index.var_at
    nv = graph.vertex_count()
    n = graph.pattern.n

    table = {}
    violations = []
    for w in range(nv):
        D_from_w = _d_matrices_from(graph, w)
        for v in range(nv):
            D = D_from_w[v]
            if w == 0 and D != d_matrix_from_laurent(graph.vertices[v].reached):
                violations.append({"kind": "recurrence-vs-laurent", "vertex": v})
            for i in range(n):
                for k in range(n):
                    pair_key = (var_at[v][i], var_at[w][k])
                    first = table.setdefault(pair_key, D[i][k])
                    if first != D[i][k]:
                        violations.append({"kind": "not-well-defined",
                                           "pair": pair_key,
                                           "values": [first, D[i][k]],
                                           "base_vertex": w,
                                           "vertex": v})
    for (a, b), d in sorted(table.items()):
        compatible = a == b or bool(index.nbr[a] >> b & 1)
        ok = d == -1 if a == b else d == 0 if compatible else d > 0
        if not ok:
            violations.append({"kind": "trichotomy", "pair": (a, b), "d": d,
                               "compatible": compatible})
    return VerificationReport(
        "d-trichotomy", not violations, True, nv * nv * n * n, violations,
        {"variables": len(index.ids), "pairs": len(table)})


def verify_compatible_sets(graph: ExchangeGraph) -> VerificationReport:
    """Every pairwise compatible set sits inside a cluster, and the
    maximal compatible sets are exactly the clusters.

    The compatible sets are the cliques of ``nbr``.  One depth-first
    walk reaches each clique once, in increasing order of its bitmask,
    by adding ever smaller ids while carrying ``common``, the ids
    compatible with every member, and ``held``, the vertices whose
    clusters hold every member: a clique is maximal exactly when
    ``common`` is 0 and lies in a cluster exactly when ``held`` is not.
    ``checked`` is ``1 << nval``: every subset of the variables is
    either a clique the walk visits or holds an incompatible pair.
    """
    if not graph.complete:
        raise ValueError("compatible-set check needs a completed exploration")
    index = _Membership(graph)
    nbr = index.nbr
    nval = len(nbr)
    holders = [sum(1 << v for v in index.where[s]) for s in index.ids]
    clusters = {frozenset(row) for row in index.var_at}

    violations = []
    compatible_count = 0
    maximal = set()
    stack = [((), (1 << nval) - 1, (1 << index.nv) - 1)]
    while stack:
        members, common, held = stack.pop()
        compatible_count += 1
        if not held:
            violations.append({"kind": "not-in-a-cluster",
                               "set": sorted(members)})
        if not common:
            sub = frozenset(members)
            maximal.add(sub)
            if sub not in clusters:
                violations.append({"kind": "maximal-not-a-cluster",
                                   "set": sorted(sub)})
        below = common & (1 << members[-1]) - 1 if members else common
        while below:
            a = below.bit_length() - 1
            below ^= 1 << a
            stack.append((members + (a,), common & nbr[a], held & holders[a]))
    for c in clusters:
        if c not in maximal:
            violations.append({"kind": "cluster-not-maximal", "set": sorted(c)})
    return VerificationReport(
        "compatible-sets", not violations, True, 1 << nval, violations,
        {"variables": nval, "compatible_sets": compatible_count,
         "maximal_sets": len(maximal), "clusters": len(clusters)})


def verify_initial_cluster_recovery(graph: ExchangeGraph) -> VerificationReport:
    """Whenever a seed's D-matrix is a column permutation of -I, its
    cluster must be the correspondingly permuted initial cluster."""
    init = graph.pattern.initial_seed()
    n = graph.pattern.n
    violations = []
    hits = 0
    for rec in graph.vertices:
        D = d_matrix_from_laurent(rec.reached)
        perm = []
        for col in D:
            neg = [i for i, v in enumerate(col) if v == -1]
            if len(neg) != 1 or any(v != 0 for i, v in enumerate(col) if i != neg[0]):
                perm = None
                break
            perm.append(neg[0])
        if perm is None or sorted(perm) != list(range(n)):
            continue
        hits += 1
        for i in range(n):
            if rec.reached.x[i] != init.x[perm[i]]:
                violations.append({"vertex": rec.index, "position": i,
                                   "expected": str(init.x[perm[i]]),
                                   "got": str(rec.reached.x[i])})
    return VerificationReport(
        "initial-cluster-recovery", not violations, graph.complete,
        hits, violations, {"matching_vertices": hits})
