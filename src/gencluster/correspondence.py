"""Pairing a higher-degree pattern with a classic companion.

Two patterns (B, R) and (Bb, Rb) form a pair when the column-scaled
products agree: B * diag(R) == Bb * diag(Rb).  Mutating both along the
same direction sequence preserves the condition, the integer
denominator recurrences coincide step for step, and matching positions
carry corresponding cluster variables.  ``verify_identification`` tests
the induced graph isomorphism exhaustively over all non-backtracking
direction sequences up to a horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matrices as mat
from .errors import IncompatibleInitialDataError
from .graph import VerificationReport, canonical_form
from .invariants import d_matrix_by_recurrence
from .seeds import ClusterPattern, mutate_seed


@dataclass(frozen=True)
class AlgebraPair:
    left: ClusterPattern
    right: ClusterPattern

    @property
    def n(self):
        return self.left.n

    def companion_product(self):
        return mat.freeze(mat.scale_columns(self.left.b0.rows,
                                            self.left.pair.degrees))


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


def tree_paths(n: int, horizon: int):
    """All non-backtracking direction sequences of length <= horizon,
    in breadth-first lexicographic order (0-based directions)."""
    out = [()]
    frontier = [()]
    for _ in range(horizon):
        nxt = []
        for p in frontier:
            for k in range(n):
                if p and p[-1] == k:
                    continue
                nxt.append(p + (k,))
        out.extend(nxt)
        frontier = nxt
    return out


def verify_d_equality(pair: AlgebraPair, paths=None, horizon=None) -> VerificationReport:
    """Denominator matrices of the two patterns agree along every path."""
    if paths is None:
        if horizon is None:
            raise ValueError("give explicit paths or a horizon")
        paths = tree_paths(pair.n, horizon)
    violations = []
    for p in paths:
        p = tuple(p)
        dl = d_matrix_by_recurrence(pair.left, p)
        dr = d_matrix_by_recurrence(pair.right, p)
        if dl != dr:
            violations.append({"path": [k + 1 for k in p],
                               "left": [list(c) for c in dl],
                               "right": [list(c) for c in dr]})
    return VerificationReport("d-equality", not violations, False,
                              len(paths), violations,
                              {"paths": len(paths)})


def transport(pair: AlgebraPair, path, i: int):
    """The matched cluster variables at position ``i`` of the seeds both
    patterns reach along ``path``."""
    p = tuple(path)
    return (pair.left.seed_at(p).x[i], pair.right.seed_at(p).x[i])


def _expand_tree(pattern: ClusterPattern, horizon: int):
    """Seeds at every non-backtracking path, computed incrementally."""
    seeds = {(): pattern.initial_seed()}
    frontier = [()]
    for _ in range(horizon):
        nxt = []
        for p in frontier:
            s = seeds[p]
            for k in range(pattern.n):
                if p and p[-1] == k:
                    continue
                q = p + (k,)
                seeds[q] = mutate_seed(s, pattern.pair, k)
                nxt.append(q)
        frontier = nxt
    return seeds


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
    that carries clusters to clusters.
    """
    left_seeds = _expand_tree(pair.left, horizon)
    right_seeds = _expand_tree(pair.right, horizon)
    paths = sorted(left_seeds, key=lambda p: (len(p), p))

    left_key = {p: canonical_form(left_seeds[p], pair.left.pair).key
                for p in paths}
    right_key = {p: canonical_form(right_seeds[p], pair.right.pair).key
                 for p in paths}
    left_var = {(p, i): str(left_seeds[p].x[i])
                for p in paths for i in range(pair.n)}
    right_var = {(p, i): str(right_seeds[p].x[i])
                 for p in paths for i in range(pair.n)}

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

    left_clusters = {frozenset(str(v) for v in left_seeds[p].x) for p in paths}
    right_clusters = {frozenset(str(v) for v in right_seeds[p].x) for p in paths}
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
        "identification", not violations, False, len(paths), violations,
        {"paths": len(paths),
         "vertices": len(_partition(left_key)),
         "variables": len(alpha),
         "clusters": len(left_clusters)})
