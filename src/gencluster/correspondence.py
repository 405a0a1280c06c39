"""Pairing a higher-degree pattern with a classic companion.

Two patterns (B, R) and (Bb, Rb) form a pair when the column-scaled
products agree: B * diag(R) == Bb * diag(Rb).  Mutating both along the
same direction sequence preserves the condition, the integer
denominator recurrences coincide step for step, and matching positions
carry corresponding cluster variables.  Both checks fold one step per
edge over the tree of non-backtracking direction sequences up to a
horizon: ``verify_d_equality`` carries the (D-matrix, exchange matrix)
of each side, ``verify_identification`` walks each side's explored
transition table and reads variables off its stored renderings.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matrices as mat
from .errors import IncompatibleInitialDataError
from .graph import VerificationReport, explore
from .invariants import d_recurrence_step
from .seeds import ClusterPattern, mutate_matrix


@dataclass(frozen=True)
class AlgebraPair:
    left: ClusterPattern
    right: ClusterPattern

    @property
    def n(self):
        return self.left.n


def make_pair(left: ClusterPattern, right: ClusterPattern = None) -> AlgebraPair:
    """Validate (or construct) a companion pairing.

    With ``right`` omitted, the canonical partner is used: the
    column-scaled product as exchange matrix with all degrees 1.
    """
    prod = mat.freeze(mat.scale_columns(left.b0.rows, left.pair.degrees))
    if right is None:
        right = ClusterPattern.build(prod, semifield=left.semifield)
    if right.n != left.n:
        raise IncompatibleInitialDataError("patterns have different ranks")
    rprod = mat.freeze(mat.scale_columns(right.b0.rows, right.pair.degrees))
    if rprod != prod:
        raise IncompatibleInitialDataError(
            "column-scaled products differ: %r vs %r" % (prod, rprod))
    return AlgebraPair(left, right)


def _fold_tree(n: int, horizon: int, root, step):
    """``(path, state)`` for every path of ``tree_paths(n, horizon)``, in
    that order: ``root`` at the empty path, then ``step(state, k)`` once
    per tree edge."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0, got %d" % horizon)
    out = [((), root)]
    frontier = out[:]
    for _ in range(horizon):
        frontier = [(p + (k,), step(state, k)) for p, state in frontier
                    for k in range(n) if not p or p[-1] != k]
        out.extend(frontier)
    return out


def tree_paths(n: int, horizon: int):
    """All non-backtracking direction sequences of length <= horizon,
    in breadth-first lexicographic order (0-based directions)."""
    return [p for p, _ in _fold_tree(n, horizon, None, lambda s, k: None)]


def verify_d_equality(pair: AlgebraPair, horizon: int) -> VerificationReport:
    """Denominator matrices of the two patterns agree along every path
    of ``tree_paths(n, horizon)``."""
    sides = (pair.left, pair.right)

    def step(state, k):
        return tuple((d_recurrence_step(d, b, side.pair.degrees, k),
                      mutate_matrix(b, side.pair, k))
                     for (d, b), side in zip(state, sides))

    root = tuple((mat.identity(pair.n, -1), side.b0) for side in sides)
    walked = _fold_tree(pair.n, horizon, root, step)
    violations = [{"path": [k + 1 for k in p],
                   "left": [list(c) for c in dl],
                   "right": [list(c) for c in dr]}
                  for p, ((dl, _), (dr, _)) in walked if dl != dr]
    return VerificationReport("d-equality", not violations, False, len(walked),
                              violations, {"paths": len(walked)})


def transport(pair: AlgebraPair, path, i: int):
    """The matched cluster variables at position ``i`` of the seeds both
    patterns reach along ``path``."""
    p = tuple(path)
    return (pair.left.seed_at(p).x[i], pair.right.seed_at(p).x[i])


def _walk_table(pattern: ClusterPattern, horizon: int):
    """Walk every tree path through ``explore(pattern, depth_limit=horizon)``.

    The state (v, pos) of a path says position i of its seed is position
    pos[i] at vertex v.  Returns the vertex of each path, the rendering
    at each (path, position) slot and the set of clusters reached.
    """
    graph = explore(pattern, depth_limit=horizon)

    def step(state, k):
        v, pos = state
        w, sigma = graph.succ[v][pos[k]]
        return w, tuple(sigma[i] for i in pos)

    vertex, var = {}, {}
    root = (0, tuple(range(pattern.n)))
    for p, (v, pos) in _fold_tree(pattern.n, horizon, root, step):
        vertex[p] = v
        for i, j in enumerate(pos):
            var[p, i] = graph.vertices[v].canon.serials[j]
    clusters = {frozenset(graph.vertices[v].canon.serials)
                for v in vertex.values()}
    return vertex, var, clusters


def _partition(assignment):
    """Group keys by value; return the set of frozensets of keys."""
    groups = {}
    for key, value in assignment.items():
        groups.setdefault(value, set()).add(key)
    return {frozenset(g) for g in groups.values()}


def verify_identification(pair: AlgebraPair, horizon: int) -> VerificationReport:
    """Within the horizon, both patterns must identify the same paths
    (seed equivalence) and the same (path, position) slots (variable
    equality), making position-matching a bijection of cluster variables
    that carries clusters to clusters.  Each side is explored to the
    horizon once and every path is walked through its transition table,
    composing the relabeling of each edge taken.
    """
    left_key, left_var, left_clusters = _walk_table(pair.left, horizon)
    right_key, right_var, right_clusters = _walk_table(pair.right, horizon)

    violations = []
    if _partition(left_key) != _partition(right_key):
        violations.append({"kind": "vertex-partition-mismatch"})
    if _partition(left_var) != _partition(right_var):
        violations.append({"kind": "variable-partition-mismatch"})

    alpha = {}
    for slot, lv in left_var.items():
        rv = right_var[slot]
        if alpha.setdefault(lv, rv) != rv:
            violations.append({"kind": "map-not-well-defined",
                               "variable": lv,
                               "images": [alpha[lv], rv]})
    if len(set(alpha.values())) != len(alpha):
        violations.append({"kind": "map-not-injective"})

    mapped = set()
    if not any(v["kind"] == "map-not-well-defined" for v in violations):
        mapped = {frozenset(alpha[s] for s in c) for c in left_clusters}
        if mapped != right_clusters:
            violations.append({"kind": "cluster-sets-differ"})
    if len(left_clusters) != len(right_clusters):
        violations.append({"kind": "cluster-count-mismatch",
                           "left": len(left_clusters),
                           "right": len(right_clusters)})

    return VerificationReport(
        "identification", not violations, False, len(left_key), violations,
        {"paths": len(left_key),
         "vertices": len(_partition(left_key)),
         "variables": len(alpha),
         "clusters": len(left_clusters)})
