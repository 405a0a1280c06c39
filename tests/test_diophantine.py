"""Integer oracles for capped explores of infinite type.

With trivial coefficients every cluster variable is a Laurent polynomial
with integer coefficients, so its value at x = (1, ..., 1) is an integer,
and classical equations pin those values down: a capped walk that stored
a wrong variable would break them.
"""

import pytest

from gencluster import ClusterPattern, TropicalSemifield, explore

MARKOV = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]
CYCLE = [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]


def values_at_one(graph, semifield_point=()):
    """The value of every interned variable at x = 1, by id; each one
    must be an integer."""
    ones = (1,) * graph.pattern.n
    out = [None] * len(graph.var_ids)
    for var, a in graph.var_ids.items():
        value = var.evaluate(ones, semifield_point)
        assert value.denominator == 1, (str(var), value)
        out[a] = int(value)
    return out


def clusters_at_one(graph, semifield_point=()):
    values = values_at_one(graph, semifield_point)
    return [[values[a] for a in rec.ids] for rec in graph.vertices]


def test_markov_quiver_solves_the_markov_equation():
    graph = explore(ClusterPattern.build(MARKOV), vertex_limit=40)
    assert graph.vertex_count() == 40
    clusters = clusters_at_one(graph)
    for a, b, c in clusters:
        assert a * a + b * b + c * c == 3 * a * b * c
    assert sorted(clusters[-1]) == [5, 29, 433]


@pytest.mark.parametrize("k", [1, 2, 5])
def test_generalized_markov_equation_at_u_equal_k(k):
    # degrees (2, 2, 2) with interior coefficient u in every direction;
    # the companion B R is the Markov quiver.  Observed here on 40
    # vertices: at u = k every cluster solves
    # a^2 + b^2 + c^2 + k(ab + bc + ca) = (3 + 3k)abc
    P = TropicalSemifield(("u",))
    u = P.generator("u")
    pattern = ClusterPattern.build(CYCLE, degrees=(2, 2, 2), semifield=P,
                                   frozen=[(u,)] * 3)
    graph = explore(pattern, vertex_limit=40)
    assert graph.vertex_count() == 40
    for a, b, c in clusters_at_one(graph, (k,)):
        assert (a * a + b * b + c * c + k * (a * b + b * c + c * a)
                == (3 + 3 * k) * a * b * c)


@pytest.mark.parametrize("rows, degrees, cap, relation", [
    ([[0, 2], [-2, 0]], (1, 1), 26, lambda y: y * y + 1),
    ([[0, 1], [-1, 0]], (2, 2), 17, lambda y: y * y + y + 1),
], ids=["kronecker", "degrees-2-2"])
def test_rank2_exchange_relation_at_one(rows, degrees, cap, relation):
    # along every edge the two exchanged values multiply to the exchange
    # polynomial at the kept value y
    graph = explore(ClusterPattern.build(rows, degrees=degrees),
                    vertex_limit=cap)
    values = values_at_one(graph)
    edges = 0
    for rec, row in zip(graph.vertices, graph.succ):
        for k, slot in enumerate(row):
            if slot is None:
                continue
            w, sigma = slot
            old, new = rec.ids[k], graph.vertices[w].ids[sigma[k]]
            kept = values[rec.ids[1 - k]]
            assert values[old] * values[new] == relation(kept)
            edges += 1
    assert edges == 2 * (cap - 1)
