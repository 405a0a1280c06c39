import pytest

from gencluster import (AlgebraPair, ClusterPattern,
                        IncompatibleInitialDataError, TropicalSemifield,
                        make_pair, transport, tree_paths, verify_d_equality,
                        verify_identification)
from gencluster.invariants import d_recurrence_step


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

    def counting(cols, b, degrees, k):
        calls.append(degrees)
        return d_recurrence_step(cols, b, degrees, k)

    monkeypatch.setattr(corr, "d_recurrence_step", counting)
    rep = verify_d_equality(pair2, 6)
    edges = len(tree_paths(2, 6)) - 1
    assert rep.passed and len(calls) == 2 * edges
    assert calls.count(pair2.left.pair.degrees) == edges


def test_d_equality_detects_unrelated_patterns(a2):
    b2 = ClusterPattern.build([[0, 2], [-1, 0]])
    fake = AlgebraPair(a2, b2)  # bypasses make_pair validation
    rep = verify_d_equality(fake, horizon=4)
    assert not rep.passed and rep.violations


def test_transport(pair2):
    lv, rv = transport(pair2, (0,), 0)
    assert str(lv) == "x1^-1*x2^2 + w*x1^-1*x2 + x1^-1"
    assert str(rv) == "x1^-1*x2^2 + x1^-1"
    lv2, rv2 = transport(pair2, (0,), 1)
    assert str(lv2) == "x2" and str(rv2) == "x2"


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
