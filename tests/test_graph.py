import itertools
import json
import random

import pytest

from gencluster import (ClusterPattern, InconsistentDegreeTransportError, Seed,
                        UnknownVariableError, canonical_form, compatibility,
                        explore, verify_all_connected_subgraphs,
                        verify_compatible_sets, verify_connected_subgraph,
                        verify_dvector_trichotomy,
                        verify_initial_cluster_recovery)
from gencluster.graph import (CanonicalSeed, ExchangeGraph, VerificationReport,
                              VertexRecord, _verify_dedup_transport)


# ---- canonical form ----


def test_canonical_form_sorts_and_keys(a2):
    s0 = a2.initial_seed()
    c = canonical_form(s0, a2.pair)
    assert c.perm == (0, 1)
    assert c.serials == ("x1", "x2")
    # a relabeled copy canonicalizes to the same key
    swapped = Seed(type(s0.B)(((0, -1), (1, 0))), (s0.x[1], s0.x[0]),
                   (s0.y[1], s0.y[0]))
    assert canonical_form(swapped, a2.pair).key == c.key
    assert canonical_form(swapped, a2.pair).perm == (1, 0)
    assert canonical_form(swapped, a2.pair).serials == ("x2", "x1")


def test_canonical_form_separates_unequal_degrees(a2, gen2):
    s0 = a2.initial_seed()
    t0 = gen2.initial_seed()
    # same matrix and cluster, different exchange data -> different keys
    assert (canonical_form(s0, a2.pair).key
            != canonical_form(t0, gen2.pair).key)


def test_canonical_form_rejects_duplicate_variables(a2):
    s0 = a2.initial_seed()
    broken = Seed(s0.B, (s0.x[0], s0.x[0]), s0.y)
    with pytest.raises(RuntimeError):
        canonical_form(broken, a2.pair)


def test_random_relabelings_share_a_key(a3):
    rng = random.Random(4)
    pair = a3.pair
    base = a3.seed_at((0, 2, 1))
    want = canonical_form(base, pair).key
    for _ in range(10):
        perm = list(range(3))
        rng.shuffle(perm)
        rows = tuple(tuple(base.B.rows[perm[i]][perm[j]] for j in range(3))
                     for i in range(3))
        relabeled = Seed(type(base.B)(rows),
                         tuple(base.x[perm[i]] for i in range(3)),
                         tuple(base.y[perm[i]] for i in range(3)))
        assert canonical_form(relabeled, pair).key == want


def test_dedup_transport_flags_degree_mismatch(gen2):
    s0 = gen2.initial_seed()
    stored = VertexRecord(0, canonical_form(s0, gen2.pair), s0, ())
    swapped = Seed(type(s0.B)(((0, -1), (1, 0))), (s0.x[1], s0.x[0]),
                   (s0.y[1], s0.y[0]))
    canon = canonical_form(swapped, gen2.pair)
    # the permutation relating the seeds swaps a degree-2 direction with
    # a degree-1 one, which valid exploration data can never produce
    with pytest.raises(InconsistentDegreeTransportError):
        _verify_dedup_transport(stored, swapped, canon, gen2.pair)


# ---- exploration ----


def test_explore_requires_a_limit(a2):
    with pytest.raises(ValueError):
        explore(a2)


def test_explore_counts(a2_graph, gen2_graph, a3_graph, gen3_graph):
    for graph, nv, ne in ((a2_graph, 5, 5), (gen2_graph, 6, 6),
                          (a3_graph, 14, 21), (gen3_graph, 20, 30)):
        assert graph.complete
        assert graph.vertex_count() == nv
        assert graph.edge_count() == ne
        n = graph.pattern.n
        assert all(len({w for w, _ in row}) == n for row in graph.succ)


def test_explore_is_deterministic(gen2):
    a = explore(gen2, depth_limit=12)
    b = explore(gen2, depth_limit=12)
    assert [r.canon.key for r in a.vertices] == [r.canon.key for r in b.vertices]
    assert a.succ == b.succ


def test_truncation_and_resume(gen2):
    t = explore(gen2, depth_limit=2)
    assert not t.complete and t.frontier
    done = explore(gen2, depth_limit=12, resume=t)
    assert done.complete
    assert done.vertex_count() == 6 and done.edge_count() == 6
    assert done.succ == explore(gen2, depth_limit=12).succ
    capped = explore(gen2, vertex_limit=3)
    assert not capped.complete and capped.vertex_count() == 3


def _chain(n):
    return [[1 if j == i + 1 else -1 if j == i - 1 else 0 for j in range(n)]
            for i in range(n)]


def test_resume_after_vertex_cap_matches_one_shot():
    # a vertex whose neighbour was dropped at the cap keeps an empty
    # slot, so resuming reaches the whole graph
    a4 = ClusterPattern.build(_chain(4))
    full = explore(a4, depth_limit=40, vertex_limit=1000)
    assert full.complete and full.vertex_count() == 42 and full.edge_count() == 84
    part = explore(a4, vertex_limit=10)
    assert not part.complete and part.vertex_count() == 10
    resumed = explore(a4, depth_limit=40, vertex_limit=1000, resume=part)
    assert resumed.key_to_index == full.key_to_index
    assert resumed.succ == full.succ
    assert resumed.to_json_dict() == full.to_json_dict()
    # resuming leaves the input graph alone
    assert part.vertex_count() == 10 and not part.complete


# type D4: node 2 joined to the other three
D4 = [[0, 1, 0, 0], [-1, 0, -1, -1], [0, 1, 0, 0], [0, 1, 0, 0]]
# type D5: the chain 1-2-3-4 with node 5 also joined to node 3
D5 = [[0, 1, 0, 0, 0], [-1, 0, 1, 0, 0], [0, -1, 0, 1, 1],
      [0, 0, -1, 0, 0], [0, 0, -1, 0, 0]]


@pytest.mark.parametrize("rows,degrees,count", [
    (_chain(2), None, 5), (_chain(3), None, 14), (_chain(4), None, 42),
    (_chain(5), None, 132), (_chain(3), (2, 1, 1), 20),
    (_chain(3), (1, 1, 2), 20), (_chain(2), (3, 1), 8), (D4, None, 50),
], ids=["A2", "A3", "A4", "A5", "B3", "C3", "G2", "D4"])
def test_finite_type_cluster_counts(rows, degrees, count):
    graph = explore(ClusterPattern.build(rows, degrees=degrees),
                    vertex_limit=1000)
    n = len(rows)
    assert graph.complete and graph.vertex_count() == count
    for v, row in enumerate(graph.succ):
        assert len({w for w, _ in row}) == n
        for k, (w, sigma) in enumerate(row):
            inverse = tuple(sorted(range(n), key=sigma.__getitem__))
            assert graph.succ[w][sigma[k]] == (v, inverse)


def test_resume_requires_same_pattern(a2, gen2):
    t = explore(a2, depth_limit=2)
    with pytest.raises(ValueError):
        explore(gen2, depth_limit=4, resume=t)


def test_exports(a2_graph):
    dot = a2_graph.to_dot()
    assert dot.startswith("graph exchange {")
    assert dot.count(" -- ") == 5
    dot2 = a2_graph.to_dot(label_dmatrix=True)
    assert "D=" in dot2
    blob = a2_graph.to_json_dict()
    json.dumps(blob)
    assert blob["vertex_count"] == 5 and blob["complete"]
    assert len(blob["vertices"]) == 5 and len(blob["edges"]) == 5
    # 1-based directions in reports
    assert all(1 <= d <= 2 for e in blob["edges"] for d in e["directions"])


# ---- checks over graphs ----


def test_connected_subgraph_single(a2_graph):
    rep = verify_connected_subgraph(a2_graph, ["x1"])
    assert rep.passed and rep.status == "pass"
    assert len(rep.details["vertices"]) == 2


def test_connected_subgraph_unknown_variable(a2_graph):
    with pytest.raises(UnknownVariableError):
        verify_connected_subgraph(a2_graph, ["nope"])


def test_connected_subgraphs_all(a2_graph, gen2_graph, a3_graph):
    for graph in (a2_graph, gen2_graph, a3_graph):
        rep = verify_all_connected_subgraphs(graph)
        assert rep.passed and not rep.violations


def test_compatibility(a2_graph, a2):
    x1, x2 = (str(v) for v in a2.initial_seed().x)
    x1p = str(a2.seed_at((0,)).x[0])
    assert compatibility(a2_graph, x1, x2)
    assert compatibility(a2_graph, x1p, x2)
    assert not compatibility(a2_graph, x1, x1p)


def test_trichotomy(a2_graph, gen2_graph, a3_graph, gen3_graph):
    for graph in (a2_graph, gen2_graph, a3_graph, gen3_graph):
        rep = verify_dvector_trichotomy(graph)
        assert rep.passed, rep.violations[:3]
        n = graph.pattern.n
        nvars = rep.details["variables"]
        assert rep.details["pairs"] == nvars * nvars


def test_trichotomy_needs_complete_graph(gen2):
    t = explore(gen2, depth_limit=2)
    with pytest.raises(ValueError):
        verify_dvector_trichotomy(t)


def test_compatible_sets(a2_graph, gen2_graph, a3_graph):
    for graph, nclusters in ((a2_graph, 5), (gen2_graph, 6), (a3_graph, 14)):
        rep = verify_compatible_sets(graph)
        assert rep.passed, rep.violations[:3]
        assert rep.details["clusters"] == nclusters
        assert rep.details["maximal_sets"] == nclusters


def test_compatible_sets_needs_complete_graph(gen2):
    t = explore(gen2, vertex_limit=3)
    with pytest.raises(ValueError):
        verify_compatible_sets(t)


def _subset_scan(graph):
    """The compatible-set check as a scan of every subset of the
    variables with a pairwise test on each: a reference for graphs of at
    most 20 variables."""
    ids = {}
    var_at = [tuple(ids.setdefault(s, len(ids)) for s in rec.canon.serials)
              for rec in graph.vertices]
    nval = len(ids)
    assert nval <= 20
    comp = {(a, b) for row in var_at for a in row for b in row}
    clusters = {frozenset(row) for row in var_at}

    violations = []
    compatible_count = 0
    maximal = set()
    for mask in range(1 << nval):
        members = [a for a in range(nval) if mask >> a & 1]
        if any((members[p], members[q]) not in comp
               for p in range(len(members)) for q in range(p + 1, len(members))):
            continue
        compatible_count += 1
        sub = frozenset(members)
        if not any(sub <= c for c in clusters):
            violations.append({"kind": "not-in-a-cluster", "set": sorted(sub)})
        is_max = all(any((a, b) not in comp for a in members)
                     for b in range(nval) if b not in sub)
        if is_max and members:
            maximal.add(sub)
            if sub not in clusters:
                violations.append({"kind": "maximal-not-a-cluster",
                                   "set": sorted(sub)})
    for c in clusters:
        if c not in maximal:
            violations.append({"kind": "cluster-not-maximal", "set": sorted(c)})
    return VerificationReport(
        "compatible-sets", not violations, True, 1 << nval, violations,
        {"variables": nval, "compatible_sets": compatible_count,
         "maximal_sets": len(maximal), "clusters": len(clusters)})


def _fabricated(pattern, clusters):
    """A complete graph of rank-2 vertices with the given clusters; the
    compatible-set check reads nothing else."""
    graph = ExchangeGraph(pattern)
    nv = len(clusters)
    for v, serials in enumerate(clusters):
        canon = CanonicalSeed(repr(serials), (0, 1), serials)
        graph.vertices.append(VertexRecord(v, canon, None, ()))
        graph.succ.append([((v + 1) % nv, (0, 1)), ((v + 2) % nv, (0, 1))])
    return graph


def _triangle(pattern):
    """Clusters {a,b}, {b,c} and {a,c}: {a,b,c} is pairwise compatible
    but in no cluster."""
    return _fabricated(pattern, (("a", "b"), ("b", "c"), ("a", "c")))


def test_compatible_sets_match_subset_scan(a2, a2_graph, gen2_graph,
                                           a3_graph, gen3_graph):
    # every pair of four variables is a cluster: five violating sets
    pairs = _fabricated(a2, list(itertools.combinations("abcd", 2)))
    # the walk reaches cliques in the scan's mask order, so even the
    # order of the violations agrees
    for graph in (a2_graph, gen2_graph, a3_graph, gen3_graph, _triangle(a2),
                  pairs):
        assert (verify_compatible_sets(graph).to_json_dict()
                == _subset_scan(graph).to_json_dict())


def test_compatible_sets_flag_a_triangle(a2):
    rep = verify_compatible_sets(_triangle(a2))
    assert not rep.passed
    assert sorted(v["kind"] for v in rep.violations) == [
        "cluster-not-maximal"] * 3 + ["maximal-not-a-cluster",
                                      "not-in-a-cluster"]
    assert {"kind": "not-in-a-cluster", "set": [0, 1, 2]} in rep.violations
    assert {"kind": "maximal-not-a-cluster", "set": [0, 1, 2]} in rep.violations
    assert rep.details == {"variables": 3, "compatible_sets": 8,
                           "maximal_sets": 1, "clusters": 3}


def test_compatible_sets_beyond_twenty_variables():
    graph = explore(ClusterPattern.build(D5), vertex_limit=1000)
    assert graph.complete and graph.vertex_count() == 182
    rep = verify_compatible_sets(graph)
    assert rep.passed and rep.checked == 1 << 25
    assert rep.details["variables"] == 25
    assert rep.details["maximal_sets"] == rep.details["clusters"] == 182
    # the compatible sets are the subsets of the clusters
    faces = {frozenset(sub) for rec in graph.vertices
             for r in range(len(rec.canon.serials) + 1)
             for sub in itertools.combinations(rec.canon.serials, r)}
    assert rep.details["compatible_sets"] == len(faces) == 1233


def test_compatible_sets_of_rank_zero():
    # the empty cluster is the one maximal compatible set
    rep = verify_compatible_sets(explore(ClusterPattern.build([]),
                                         depth_limit=1))
    assert rep.passed
    assert rep.details == {"variables": 0, "compatible_sets": 1,
                           "maximal_sets": 1, "clusters": 1}


def test_initial_cluster_recovery(a2_graph, gen2_graph, a3_graph):
    for graph in (a2_graph, gen2_graph, a3_graph):
        rep = verify_initial_cluster_recovery(graph)
        assert rep.passed
        assert rep.details["matching_vertices"] >= 1


def test_scaled_matrix_stays_skew_on_every_seed(gen2_graph, a3_graph,
                                                gen3_graph):
    # S is computed once from the initial seed and never recomputed
    for graph in (gen2_graph, a3_graph, gen3_graph):
        s = graph.pattern.rb_symmetrizer()
        r = graph.pattern.pair.degrees
        n = graph.pattern.n
        for rec in graph.vertices:
            b = rec.reached.B.rows
            for i in range(n):
                for j in range(n):
                    assert s[i] * r[i] * b[i][j] == -s[j] * r[j] * b[j][i]


def test_report_status_strings(a2_graph, gen2):
    rep = verify_connected_subgraph(a2_graph, ["x1"])
    assert rep.status == "pass"
    truncated = explore(gen2, depth_limit=1)
    rep = verify_connected_subgraph(truncated, ["x1"])
    assert rep.status in ("no-counterexample-within-horizon", "fail")
    blob = rep.to_json_dict()
    assert blob["check"] == "connected-subgraph"
    json.dumps(blob)
