r"""Exchange graphs: exploration, canonical keys, theorem checkers.

Two seeds are equivalent when a permutation simultaneously relabels the
cluster, the coefficients and both indices of the exchange matrix.  An
exploration interns every cluster variable of its stored seeds under an
int id, in one dict keyed by the polynomial itself (its hash and exact
equality), so a seed's variables are a tuple of ids and mutating in
direction k changes only id k.  The dedup key is one flat tuple of ints:
the sorted ids, then the exchange matrix and the coefficient exponents,
permuted the same way.  Ids are given in vertex order, so two
explorations of one pattern that store the same vertices give the same
keys.  Every dedup hit re-verifies the full transport on the actual
seeds, and that check is the only place that compares degree data: it
raises InconsistentDegreeTransportError if the exchange degrees or the
interior coefficients fail to follow the permutation (that would be an
engine bug, not data).

The checks read the interned ids too (``var_ids`` numbers variables in
order of first appearance).  Text is built only for output: JSON and DOT
label a vertex by the hash of its seed's text canonical form (the
cluster sorted by rendering), and a report renders the variables it names.

The graph is a transition table: ``succ[v][k] = (w, sigma)`` says that
mutating vertex v's seed in direction k gives vertex w's seed relabeled
by sigma (position i of the mutated seed is position sigma[i] at w), and
``None`` marks a slot not explored yet.  Exploration is a deterministic
breadth-first walk (FIFO queue, ascending directions) with optional
depth and vertex limits.  A limit leaves slots empty: the graph is
complete exactly when every slot is filled, and its frontier is the
vertices with an empty slot.  A slot left empty at the vertex limit
keeps the seed its mutation gave (``pending``).  Resuming refills
exactly the empty slots, in the order an uninterrupted walk would have
filled them and from the kept seeds where there are any, so a resumed
graph equals the one explored in one go under the final limits.

Each vertex stored by an ``explore`` call remembers, for that call only,
the vertex and direction k it came from.  Its slot k is the back edge,
and it is filled without Laurent arithmetic: mutation is an involution
(every exchange polynomial of a pattern is reciprocal), so x_k' there is
the parent's own x_k, and only B and y are mutated.  The result then
takes the usual dedup lookup and transport check, so B and y are still
verified against the parent.  A stored seed holds the one object
interned for each of its variables, so equal ids are the same object.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations

from . import matrices as mat
from .errors import InconsistentDegreeTransportError, UnknownVariableError
from .invariants import d_matrix_from_laurent, d_recurrence_step
from .seeds import (ClusterPattern, MutationPair, Seed, _mutate_exchange_data,
                    mutate_seed)


def canonical_form(seed: Seed, pair: MutationPair) -> str:
    """Sort the cluster by serialization; return the text key.

    Equivalent seeds share the key.  Only the JSON and DOT outputs call
    this, once per vertex they print, for its ``key_hash``.

    Cluster variables of one seed form a free generating set and are
    pairwise distinct, so the sort has no ties; a tie means the engine
    produced a broken seed and is a hard error.
    """
    n = seed.n
    names = tuple(str(v) for v in seed.x)
    if len(set(names)) != n:
        raise RuntimeError("cluster variables of a single seed must be distinct")
    perm = sorted(range(n), key=names.__getitem__)
    rows = tuple(tuple(seed.B.rows[i][j] for j in perm) for i in perm)
    return "B=%r;x=%r;y=%r;r=%r;z=%r" % (
        rows,
        tuple(names[i] for i in perm),
        tuple(str(seed.y[i]) for i in perm),
        tuple(pair.degrees[i] for i in perm),
        tuple(tuple(str(z) for z in pair.frozen[i]) for i in perm),
    )


def key_hash(seed: Seed, pair: MutationPair) -> str:
    """The label of a seed in the JSON and DOT outputs."""
    return hashlib.sha256(canonical_form(seed, pair).encode()).hexdigest()[:12]


@dataclass(frozen=True)
class VertexRecord:
    index: int
    reached: Seed          # the seed exactly as produced along `path`
    path: tuple            # 0-based tree address of the representative
    ids: tuple             # interned id of each cluster variable of `reached`


@dataclass
class ExchangeGraph:
    pattern: ClusterPattern
    vertices: list = field(default_factory=list)
    key_to_index: dict = field(default_factory=dict)   # int dedup key -> vertex
    succ: list = field(default_factory=list)   # succ[v][k] = (w, sigma) or None
    var_ids: dict = field(default_factory=dict)   # variable -> id, in id order
    pending: dict = field(default_factory=dict)   # (v, k) -> seed kept at the cap

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

    def to_json_dict(self):
        verts = [{"index": rec.index,
                  "key_hash": key_hash(rec.reached, self.pattern.pair),
                  "path": [k + 1 for k in rec.path],
                  **rec.reached.render(),
                  "d_matrix": [list(c) for c in
                               d_matrix_from_laurent(rec.reached)]}
                 for rec in self.vertices]
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
            label = key_hash(rec.reached, self.pattern.pair)
            if label_dmatrix:
                d = d_matrix_from_laurent(rec.reached)
                label += r"\nD=%s" % (str([list(c) for c in d]),)
            lines.append('  v%d [label="%s"];' % (rec.index, label))
        for (u, v), ks in self._edge_labels():
            text = ",".join(str(k + 1) for k in ks)
            lines.append('  v%d -- v%d [label="%s"];' % (u, v, text))
        lines.append("}")
        return "\n".join(lines) + "\n"


def _verify_dedup_transport(stored: VertexRecord, new_seed: Seed, new_ids,
                            pair: MutationPair):
    """Re-verify the seed equivalence behind a dedup hit.

    ``new_ids`` are the interned ids of ``new_seed``'s variables.
    Returns the composed permutation sigma, which sends index i of the
    new seed to the index of the stored representative holding the same
    id; the whole seed triple and the degree data must follow it.
    """
    n = new_seed.n
    sigma = tuple(map(stored.ids.index, new_ids))
    for i in range(n):
        j = sigma[i]
        if new_seed.x[i] != stored.reached.x[j] or new_seed.y[i] != stored.reached.y[j]:
            raise RuntimeError("canonical key collision: seeds are not equivalent")
        if (pair.degrees[i] != pair.degrees[j]
                or pair.frozen[i] != pair.frozen[j]):
            raise InconsistentDegreeTransportError(
                "equivalent seeds fail to transport exchange degrees along %r"
                % (sigma,))
    for i in range(n):
        for j in range(n):
            if new_seed.B.rows[i][j] != stored.reached.B.rows[sigma[i]][sigma[j]]:
                raise RuntimeError("canonical key collision: matrices differ")
    return sigma


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

    def dedup_key(seed, ids):
        # one flat tuple of fixed-length blocks
        perm = sorted(identity, key=ids.__getitem__)
        rows, y = seed.B.rows, seed.y
        return (*(ids[i] for i in perm),
                *(rows[i][j] for i in perm for j in perm),
                *(e for i in perm for e in y[i].exponents))

    g = ExchangeGraph(pattern)
    var_ids = g.var_ids
    parent = {}   # vertex stored in this call -> (vertex, direction) it came from

    def store(seed, ids, path, key):
        j = len(g.vertices)
        g.vertices.append(VertexRecord(j, seed, path, ids))
        g.key_to_index[key] = j
        g.succ.append([None] * n)
        queue.append(j)
        return j

    if resume is not None:
        if resume.pattern != pattern:
            raise ValueError("resume graph belongs to a different pattern")
        g.vertices = list(resume.vertices)
        g.key_to_index = dict(resume.key_to_index)
        g.succ = [list(row) for row in resume.succ]
        var_ids.update(resume.var_ids)
        g.pending = dict(resume.pending)
        queue = deque(resume.frontier)
    else:
        queue = deque()
        init = pattern.initial_seed()
        for v in init.x:
            var_ids[v] = len(var_ids)
        store(init, identity, (), dedup_key(init, identity))
    var_objs = list(var_ids)   # id -> the one object stored for it

    while queue:
        vi = queue.popleft()
        rec = g.vertices[vi]
        if depth_limit is not None and len(rec.path) >= depth_limit:
            continue
        row = g.succ[vi]
        up, back = parent.get(vi, (None, None))
        for k in range(n):
            if row[k] is not None:
                continue
            new_seed = g.pending.pop((vi, k), None)
            if new_seed is None and k == back:
                # mu_k is an involution: x_k' is the parent's own x_k
                b_new, y_new, _ = _mutate_exchange_data(rec.reached, pair, k)
                xs = rec.reached.x
                new_seed = Seed(b_new, xs[:k] + (g.vertices[up].reached.x[k],)
                                + xs[k + 1:], y_new)
            elif new_seed is None:
                new_seed = mutate_seed(rec.reached, pair, k)
            x_new = new_seed.x[k]
            vid = var_ids.get(x_new)
            j = None
            if vid is not None:
                if vid != rec.ids[k] and vid in rec.ids:
                    raise RuntimeError(
                        "cluster variables of a single seed must be distinct")
                ids = rec.ids[:k] + (vid,) + rec.ids[k + 1:]
                key = dedup_key(new_seed, ids)
                j = g.key_to_index.get(key)
            if j is None:
                if vertex_limit is not None and len(g.vertices) >= vertex_limit:
                    g.pending[vi, k] = new_seed
                    continue
                if vid is None:
                    # no stored seed holds x_new, so none equals new_seed
                    ids = rec.ids[:k] + (len(var_ids),) + rec.ids[k + 1:]
                    var_ids[x_new] = len(var_ids)
                    var_objs.append(x_new)
                    key = dedup_key(new_seed, ids)
                else:
                    # keep the one object interned for x_new
                    xs = new_seed.x
                    new_seed = Seed(new_seed.B, xs[:k] + (var_objs[vid],)
                                    + xs[k + 1:], new_seed.y)
                j = store(new_seed, ids, rec.path + (k,), key)
                parent[j] = (vi, k)
                sigma = identity
            else:
                sigma = _verify_dedup_transport(g.vertices[j], new_seed, ids, pair)
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
    """The variables of a graph by interned id: the ids at each vertex
    (``var_at``), the vertices holding each id as an int bitset
    (``holders``), the undirected adjacency of the transition table and
    the compatibility graph: bit b of the int ``nbr[a]`` is set when the
    distinct variables a and b share a cluster."""

    def __init__(self, graph: ExchangeGraph):
        self.nv = graph.vertex_count()
        self.var_at = [rec.ids for rec in graph.vertices]
        self.holders = [0] * len(graph.var_ids)
        self.nbr = [0] * len(graph.var_ids)
        for v, row in enumerate(self.var_at):
            for a in row:
                self.holders[a] |= 1 << v
                self.nbr[a] |= sum(1 << b for b in row if b != a)
        self.adj = [set() for _ in range(self.nv)]
        for v, row in enumerate(graph.succ):
            for w, _ in filter(None, row):
                self.adj[v].add(w)
                self.adj[w].add(v)

    def hits(self, want):
        """Sorted indices of the vertices whose clusters hold every id
        in ``want``."""
        held = (1 << self.nv) - 1
        for a in want:
            held &= self.holders[a]
        return [v for v in range(self.nv) if held >> v & 1]

    def connected_report(self, want, names):
        hits = self.hits(want)
        hitset, seen, stack = set(hits), set(hits[:1]), hits[:1]
        while stack:
            for w in self.adj[stack.pop()] & hitset - seen:
                seen.add(w)
                stack.append(w)
        connected = len(seen) == len(hits)
        subset = sorted(names[a] for a in want)
        violations = [] if connected else [{"subset": subset,
                                            "vertices": hits}]
        return connected, violations, {"subset": subset, "vertices": hits}


def _ids_named(names, J):
    """The ids of the variables rendered ``str(item)`` for item in J."""
    ids = {s: a for a, s in enumerate(names)}
    try:
        return {ids[s] for s in map(str, J)}
    except KeyError as missing:
        raise UnknownVariableError(missing.args[0]) from None


def verify_connected_subgraph(graph: ExchangeGraph, J) -> VerificationReport:
    """The vertices whose clusters contain every member of J must induce
    a connected subgraph (members named by their renderings)."""
    names = list(map(str, graph.var_ids))
    connected, violations, details = _Membership(graph).connected_report(
        _ids_named(names, J), names)
    return VerificationReport("connected-subgraph", connected, graph.complete,
                              1, violations, details)


def verify_all_connected_subgraphs(graph: ExchangeGraph) -> VerificationReport:
    """Run the connectivity check for every subset of every cluster."""
    index = _Membership(graph)
    names = list(map(str, graph.var_ids))
    subsets = {frozenset(sub) for row in index.var_at
               for r in range(graph.pattern.n + 1)
               for sub in combinations(row, r)}
    violations = []
    for J in sorted(subsets, key=lambda s: (len(s), sorted(names[a] for a in s))):
        violations.extend(index.connected_report(J, names)[1])
    return VerificationReport("connected-subgraph", not violations,
                              graph.complete, len(subsets), violations,
                              {"subsets_checked": len(subsets)})


def compatibility(graph: ExchangeGraph, a, b) -> bool:
    """True when the two variables occur together in some cluster."""
    names = list(map(str, graph.var_ids))
    return bool(_Membership(graph).hits(_ids_named(names, [a, b])))


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
        {"variables": len(index.nbr), "pairs": len(table)})


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
            stack.append((members + (a,), common & nbr[a], held & index.holders[a]))
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
