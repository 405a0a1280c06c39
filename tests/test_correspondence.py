import pytest
from hypothesis import given
from hypothesis import strategies as st

from gencluster import (AlgebraPair, ClusterPattern,
                        IncompatibleInitialDataError, TropicalSemifield,
                        make_pair, tree_paths, verify_d_equality,
                        verify_identification)
from gencluster.correspondence import _same_partition
from gencluster.invariants import d_step_apply
from gencluster.seeds import mutate_matrix


@pytest.fixture(scope="module")
def pair2():
    P = TropicalSemifield(("w",))
    left = ClusterPattern.build([[0, 1], [-1, 0]], degrees=(2, 1),
                                semifield=P, frozen=[(P.generator("w"),), ()])
    return make_pair(left)


def test_make_pair_default_companion(pair2):
    assert pair2.right.b0.rows == ((0, 1), (-2, 0))
    assert pair2.right.pair.degrees == (1, 1)


def test_make_pair_explicit_partner_accepted(gen2):
    right = ClusterPattern.build([[0, 1], [-2, 0]], semifield=gen2.semifield)
    pair = make_pair(gen2, right)
    assert pair.left is gen2 and pair.right is right


def test_make_pair_rejects_mismatched_product(gen2):
    # transposing the sign pattern does not preserve the scaled product
    bad = ClusterPattern.build([[0, 2], [-1, 0]], semifield=gen2.semifield)
    with pytest.raises(IncompatibleInitialDataError):
        make_pair(gen2, bad)


def test_make_pair_rejects_rank_mismatch(gen2, a3):
    with pytest.raises(IncompatibleInitialDataError):
        make_pair(gen2, a3)


def test_tree_paths():
    paths = tree_paths(2, 8)
    assert len(paths) == 17
    assert paths[0] == ()
    for p in paths:
        assert all(a != b for a, b in zip(p, p[1:]))
    assert len(tree_paths(3, 3)) == 1 + 3 + 6 + 12


def test_d_equality(pair2):
    rep = verify_d_equality(pair2, horizon=6)
    assert rep.passed and rep.checked == 13
    assert rep.status == "no-counterexample-within-horizon"


def test_d_equality_one_recurrence_step_per_tree_edge(pair2, monkeypatch):
    import gencluster.correspondence as corr
    calls = []

    def counting(cols, k, pos, neg):
        calls.append(k)
        return d_step_apply(cols, k, pos, neg)

    monkeypatch.setattr(corr, "d_step_apply", counting)
    rep = verify_d_equality(pair2, 6)
    edges = len(tree_paths(2, 6)) - 1
    assert rep.passed and len(calls) == 2 * edges


def test_d_equality_mutates_each_matrix_once(monkeypatch):
    # B3 through degrees (2,1,1) and its companion: 2 x 10 exchange
    # matrices, 3 directions each, against 762 mutations along the tree
    import gencluster.correspondence as corr
    calls = []

    def counting(b, pair, k):
        calls.append((pair.degrees, b.rows, k))
        return mutate_matrix(b, pair, k)

    monkeypatch.setattr(corr, "mutate_matrix", counting)
    b3 = ClusterPattern.build([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], degrees=(2, 1, 1))
    rep = verify_d_equality(make_pair(b3), 7)
    assert rep.passed and rep.checked == len(tree_paths(3, 7))
    assert len(calls) == len(set(calls)) == 60


def test_d_equality_detects_unrelated_patterns(a2):
    b2 = ClusterPattern.build([[0, 2], [-1, 0]])
    fake = AlgebraPair(a2, b2)  # bypasses make_pair validation
    rep = verify_d_equality(fake, horizon=4)
    assert not rep.passed and rep.violations


def test_transport(pair2):
    # the matched variables at each position of the seeds both patterns
    # reach along one path
    left, right = pair2.left.seed_at((0,)), pair2.right.seed_at((0,))
    assert str(left.x[0]) == "x1^-1*x2^2 + w*x1^-1*x2 + x1^-1"
    assert str(right.x[0]) == "x1^-1*x2^2 + x1^-1"
    assert str(left.x[1]) == "x2" and str(right.x[1]) == "x2"


def test_identification_rank2(pair2):
    rep = verify_identification(pair2, 8)
    assert rep.passed, rep.violations
    assert rep.details["vertices"] == 6
    assert rep.details["clusters"] == 6
    assert rep.details["variables"] == 6


def test_identification_rank3():
    left = ClusterPattern.build([[0, 1, 0], [-1, 0, 1], [0, -1, 0]],
                                degrees=(2, 1, 1))
    pair = make_pair(left)
    rep = verify_identification(pair, 6)
    assert rep.passed, rep.violations
    assert rep.details["clusters"] == 20


def test_identification_detects_unrelated_patterns(a2):
    b2 = ClusterPattern.build([[0, 2], [-1, 0]])
    fake = AlgebraPair(a2, b2)
    rep = verify_identification(fake, 6)
    assert not rep.passed
    kinds = {v["kind"] for v in rep.violations}
    assert "vertex-partition-mismatch" in kinds or "cluster-count-mismatch" in kinds


def _partition(assignment):
    """Group keys by value; return the set of frozensets of keys."""
    groups = {}
    for key, value in assignment.items():
        groups.setdefault(value, set()).add(key)
    return {frozenset(g) for g in groups.values()}


# the right list relabels the left one, then may change one entry
@given(st.lists(st.integers(0, 3), max_size=10),
       st.lists(st.integers(0, 3), min_size=4, max_size=4),
       st.none() | st.tuples(st.integers(0, 9), st.integers(0, 4)))
def test_same_partition_matches_the_partitions(left, relabel, change):
    right = [relabel[a] for a in left]
    if change is not None and change[0] < len(right):
        right[change[0]] = change[1]
    assert _same_partition(left, right) == (
        _partition(dict(enumerate(left))) == _partition(dict(enumerate(right))))
