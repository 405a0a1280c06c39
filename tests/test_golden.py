"""Byte-for-byte golden outputs of the command line.

Each case runs one ``gencluster`` command on a small config and compares
the written report with ``tests/golden/<name>``, ``key_hash`` values
included.  The ``REPORTS`` cases pin library reports the command line
cannot produce: the companion-pair checks on a pair that ``make_pair``
would reject, so their violation lists and order are fixed too.  Any
change in rendering, ordering or hashing fails here, so a refactor that
must keep outputs can be judged by this file alone.

Regenerate (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import sys
from pathlib import Path

import pytest

from gencluster import (AlgebraPair, ClusterPattern, verify_d_equality,
                        verify_identification)
from gencluster.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

A2 = {"b": [[0, 1], [-1, 0]]}
A3 = {"b": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]}
G2 = {"b": [[0, 1], [-1, 0]], "degrees": [3, 1]}
# multi-term coefficients: rendered "(3 + w^2)*x1^-1"
G2_W = {"b": [[0, 1], [-1, 0]], "degrees": [3, 1],
        "semifield": ["w"], "z": {"1": ["w", "w"]}}
GEN2 = {"b": [[0, 1], [-1, 0]], "degrees": [2, 1],
        "semifield": ["w"], "z": {"1": ["w"]}}
GEN2_COEFF = {"b": [[0, 1], [-1, 0]], "degrees": [2, 1],
              "semifield": ["u", "v"], "y": ["u", "v^-1"],
              "z": {"1": ["u*v"]}}
PRIN_GEN2 = {"b": [[0, 1], [-1, 0]], "degrees": [2, 1], "principal": True}
# B3 through degrees with tropical y and one z, as the ``gen3`` fixture
GEN3 = {"b": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]], "degrees": [2, 1, 1],
        "semifield": ["u", "v"], "y": ["u", "1", "v^-1"],
        "z": {"1": ["u*v"]}}
A7 = {"b": [[1 if j == i + 1 else -1 if j == i - 1 else 0 for j in range(7)]
            for i in range(7)]}
# type D5: 25 variables, past what a scan of every subset can reach
D5 = {"b": [[0, 1, 0, 0, 0], [-1, 0, 1, 0, 0], [0, -1, 0, 1, 1],
            [0, 0, -1, 0, 0], [0, 0, -1, 0, 0]]}
# infinite types, explored only to a vertex cap
AFFINE = {"b": [[0, 2], [-2, 0]]}
MARKOV = {"b": [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]}
PAIR2 = {"left": {"b": [[0, 1], [-1, 0]], "degrees": [2, 1]},
         "right": {"b": [[0, 1], [-2, 0]]}}

# golden file name -> (config, command line after the config)
CASES = {
    "mutate_a2.json": (A2, ["mutate", "--path", "1,2,1"]),
    "mutate_gen2.json": (GEN2, ["mutate", "--path", "1,2,1,2"]),
    "mutate_gen2_coeff.json": (GEN2_COEFF, ["mutate", "--path", "1,2,1"]),
    "mutate_prin_gen2.json": (PRIN_GEN2, ["mutate", "--path", "1,2,1"]),
    "explore_a3.json": (A3, ["explore", "--depth", "12"]),
    "explore_a3.dot": (A3, ["explore", "--depth", "12", "--format", "dot"]),
    "explore_g2.json": (G2, ["explore", "--depth", "12"]),
    "explore_g2.dot": (G2, ["explore", "--depth", "12", "--format", "dot",
                            "--dmatrix"]),
    "explore_g2_w.json": (G2_W, ["explore", "--depth", "12"]),
    "explore_gen2.json": (GEN2, ["explore", "--depth", "12"]),
    "explore_gen2.dot": (GEN2, ["explore", "--depth", "12", "--format",
                                "dot", "--dmatrix"]),
    "explore_gen2_coeff.json": (GEN2_COEFF, ["explore", "--depth", "12"]),
    "explore_affine_cap12.json": (AFFINE, ["explore", "--max-vertices", "12"]),
    "explore_markov_cap20.json": (MARKOV, ["explore", "--max-vertices", "20"]),
    "verify_a3_connected.json": (A3, ["verify", "connected-subgraph",
                                      "--depth", "12"]),
    "verify_a3_subset.json": (A3, ["verify", "connected-subgraph",
                                   "--depth", "12", "--subset", "x2,x1"]),
    "verify_a3_trichotomy.json": (A3, ["verify", "d-trichotomy",
                                       "--depth", "12"]),
    "verify_a3_compatible.json": (A3, ["verify", "compatible-sets",
                                       "--depth", "12"]),
    "verify_d5_compatible.json": (D5, ["verify", "compatible-sets",
                                       "--max-vertices", "1000"]),
    "verify_gen3_separation.json": (GEN3, ["verify", "separation",
                                           "--depth", "12"]),
    "verify_a7_cluster_formula.json": (A7, ["verify", "cluster-formula",
                                            "--path", "1,2,3,4,5,6,7",
                                            "--trials", "10"]),
    "verify_a7_cluster_formula_rebased.json": (
        A7, ["verify", "cluster-formula", "--path", "1,2,3",
             "--t0-path", "2,4", "--trials", "5"]),
    "verify_gen2_cg_duality.json": (GEN2, ["verify", "cg-duality",
                                           "--depth", "8"]),
    "verify_pair_d_equality.json": (PAIR2, ["verify", "d-equality",
                                            "--horizon", "5"]),
    "verify_pair_bijection.json": (PAIR2, ["verify", "bijection",
                                           "--horizon", "6"]),
}


def _unrelated_pair():
    """A2 against [[0,2],[-1,0]]: the column-scaled products differ."""
    return AlgebraPair(ClusterPattern.build(A2["b"]),
                       ClusterPattern.build([[0, 2], [-1, 0]]))


# golden file name -> report of a library call
REPORTS = {
    "unrelated_identification.json":
        lambda: verify_identification(_unrelated_pair(), 6),
    "unrelated_d_equality.json":
        lambda: verify_d_equality(_unrelated_pair(), horizon=4),
}


def render(name, workdir):
    """Run the case's command; return (exit code, bytes written)."""
    config, argv = CASES[name]
    cfg = workdir / ("%s.config.json" % name)
    cfg.write_text(json.dumps(config))
    out = workdir / name
    code = main(argv + ["--config", str(cfg), "--out", str(out)])
    return code, out.read_bytes()


def render_report(name):
    return (json.dumps(REPORTS[name]().to_json_dict(), indent=2)
            + "\n").encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, capsys):
    code, got = render(name, tmp_path)
    capsys.readouterr()
    assert code == 0
    assert got == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_golden_report(name):
    assert render_report(name) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            code, got = render(name, Path(tmp))
            if code != 0:
                sys.exit("%s: exit code %d" % (name, code))
            (GOLDEN / name).write_bytes(got)
            print("wrote", GOLDEN / name, file=sys.stderr)
    for name in sorted(REPORTS):
        (GOLDEN / name).write_bytes(render_report(name))
        print("wrote", GOLDEN / name, file=sys.stderr)
