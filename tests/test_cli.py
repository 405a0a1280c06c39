import json
import os
import subprocess
import sys

import pytest

import gencluster
from gencluster import (ConfigError, InconsistentDegreeTransportError,
                        NotLaurentError, PrincipalPattern, pair_from_config,
                        parse_path, pattern_from_config, pattern_to_config,
                        seed_dump)
from gencluster.cli import main

GEN2 = {"b": [[0, 1], [-1, 0]], "degrees": [2, 1],
        "semifield": ["w"], "z": {"1": ["w"]}}
A2 = {"b": [[0, 1], [-1, 0]]}
PRIN2 = {"b": [[0, 1], [-1, 0]], "degrees": [2, 1], "principal": True}
PAIR2 = {"left": {"b": [[0, 1], [-1, 0]], "degrees": [2, 1]},
         "right": {"b": [[0, 1], [-2, 0]]}}


# ---- config parsing ----


def test_pattern_round_trip():
    for cfg in (A2, GEN2,
                {"b": [[0, 1], [-1, 0]], "semifield": ["u", "v"],
                 "y": ["u", "u^-1*v^2"]}):
        p = pattern_from_config(cfg)
        assert pattern_from_config(pattern_to_config(p)) == p


def test_principal_config():
    p = pattern_from_config(PRIN2)
    assert isinstance(p, PrincipalPattern)
    assert pattern_to_config(p) == PRIN2
    assert pattern_from_config(pattern_to_config(p)) == p


@pytest.mark.parametrize("cfg,needle", [
    ({}, "b"),
    ({"b": [[0, 1]]}, "b[0]"),
    ({"b": [[0, True], [-1, 0]]}, "b[0][1]"),
    ({"b": [[0, 1], [1, 0]]}, "sign"),
    ({"b": [[0, 1], [-1, 0]], "degrees": [2]}, "degrees"),
    ({"b": [[0, 1], [-1, 0]], "degrees": [0, 1]}, "degrees[0]"),
    ({"b": [[0, 1], [-1, 0]], "extra": 1}, "extra"),
    ({"b": [[0, 1], [-1, 0]], "y": ["1"]}, "y"),
    ({"b": [[0, 1], [-1, 0]], "y": ["1", "zz"]}, "y[1]"),
    ({"b": [[0, 1], [-1, 0]], "degrees": [2, 1], "z": {"3": ["1"]}}, "z.3"),
    ({"b": [[0, 1], [-1, 0]], "degrees": [2, 1], "z": {"1": []}}, "z.1"),
    ({"b": [[0, 1], [-1, 0]], "principal": True, "y": ["1", "1"]}, "y"),
])
def test_config_errors_carry_field_paths(cfg, needle):
    with pytest.raises(ConfigError) as err:
        pattern_from_config(cfg)
    assert needle in str(err.value)


def test_pair_config():
    pair = pair_from_config(PAIR2)
    assert pair.right.b0.rows == ((0, 1), (-2, 0))
    # omitted right side falls back to the scaled-product companion
    solo = pair_from_config({"left": PAIR2["left"]})
    assert solo.right.b0.rows == ((0, 1), (-2, 0))
    with pytest.raises(ConfigError):
        pair_from_config({"right": A2})


def test_parse_path():
    assert parse_path("", 2) == ()
    assert parse_path(None, 2) == ()
    assert parse_path("1,2,1", 2) == (0, 1, 0)
    with pytest.raises(ConfigError):
        parse_path("0", 2)
    with pytest.raises(ConfigError):
        parse_path("3", 2)
    with pytest.raises(ConfigError):
        parse_path("x", 2)


def test_seed_dump_fields():
    plain = seed_dump(pattern_from_config(GEN2), (0,))
    assert plain["path"] == [1]
    assert plain["x"][0] == "x1^-1*x2^2 + w*x1^-1*x2 + x1^-1"
    assert plain["d_matrix"] == [[1, 0], [0, -1]]
    assert "c_matrix" not in plain
    prin = seed_dump(pattern_from_config(PRIN2), (0,))
    assert prin["c_matrix"] == [[-1, 0], [2, 1]]
    assert prin["g_matrix"] == [[-1, 2], [0, 1]]
    assert prin["f_polynomials"] == ["1 + y1*z1_1 + y1^2", "1"]


# ---- command line ----


def write(tmp_path, name, payload):
    f = tmp_path / name
    f.write_text(json.dumps(payload))
    return str(f)


def test_mutate_command(tmp_path, capsys):
    cfg = write(tmp_path, "gen2.json", GEN2)
    assert main(["mutate", "--config", cfg, "--path", "1"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["x"][0].startswith("x1^-1*x2^2")


def test_mutate_to_file(tmp_path):
    cfg = write(tmp_path, "a2.json", A2)
    out = tmp_path / "seed.json"
    assert main(["mutate", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["x"] == ["x1", "x2"]


def test_explore_json_and_dot(tmp_path, capsys):
    cfg = write(tmp_path, "gen2.json", GEN2)
    assert main(["explore", "--config", cfg, "--depth", "12"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["vertex_count"] == 6 and blob["complete"]
    assert main(["explore", "--config", cfg, "--depth", "12",
                 "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("graph exchange {") and out.count(" -- ") == 6


def test_verify_graph_checks(tmp_path, capsys):
    cfg = write(tmp_path, "gen2.json", GEN2)
    for check in ("connected-subgraph", "d-trichotomy", "compatible-sets",
                  "initial-recovery"):
        assert main(["verify", check, "--config", cfg, "--depth", "12"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["status"] == "pass"


def test_verify_subset_flag(tmp_path, capsys):
    cfg = write(tmp_path, "a2.json", A2)
    assert main(["verify", "connected-subgraph", "--config", cfg,
                 "--depth", "10", "--subset", "x1"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["details"]["vertices"] == [0, 2]


def test_verify_pair_checks(tmp_path, capsys):
    cfg = write(tmp_path, "pair.json", PAIR2)
    assert main(["verify", "d-equality", "--config", cfg,
                 "--horizon", "6"]) == 0
    capsys.readouterr()
    assert main(["verify", "bijection", "--config", cfg,
                 "--horizon", "8"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["details"]["clusters"] == 6


def test_verify_cluster_formula(tmp_path, capsys):
    cfg = write(tmp_path, "gen2.json", GEN2)
    assert main(["verify", "cluster-formula", "--config", cfg,
                 "--path", "1,2", "--trials", "5"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["checked"] == 5 and blob["status"] == "pass"


def test_verify_cluster_formula_deterministic(tmp_path, capsys):
    cfg = write(tmp_path, "gen2.json", GEN2)
    runs = []
    for _ in range(2):
        assert main(["verify", "cluster-formula", "--config", cfg,
                     "--path", "1,2,1", "--trials", "4",
                     "--rng-seed", "7"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_verify_duality_and_separation(tmp_path, capsys):
    cfg = write(tmp_path, "gen2.json", GEN2)
    assert main(["verify", "cg-duality", "--config", cfg,
                 "--depth", "8"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["seeds_checked"] == 6
    assert main(["verify", "separation", "--config", cfg,
                 "--depth", "12"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["values_checked"] == 12


def test_usage_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["mutate", "--config", str(bad)]) == 2
    cfg = write(tmp_path, "notskew.json", {"b": [[0, 1], [1, 0]]})
    assert main(["mutate", "--config", cfg]) == 2
    assert main(["mutate", "--config", str(tmp_path / "missing.json")]) == 2
    assert main(["verify", "nonsense", "--config", "x"]) == 2
    assert main(["mutate"]) == 2
    a2 = write(tmp_path, "a2.json", A2)
    # incomplete exploration cannot support completeness-only checks
    assert main(["verify", "d-trichotomy", "--config", a2,
                 "--depth", "2"]) == 2
    assert main(["mutate", "--config", a2, "--path", "9"]) == 2
    # a limit that leaves nothing to check is refused, not passed
    assert main(["verify", "cluster-formula", "--config", a2, "--path", "1",
                 "--trials", "0"]) == 2
    assert main(["explore", "--config", a2, "--max-vertices", "0"]) == 2
    assert main(["explore", "--config", a2, "--depth", "-1"]) == 2
    pair = write(tmp_path, "pair.json", PAIR2)
    for check in ("bijection", "d-equality"):
        assert main(["verify", check, "--config", pair,
                     "--horizon", "-1"]) == 2
    capsys.readouterr()


def test_violations_exit_code(tmp_path, capsys, monkeypatch):
    # plumbing check: a failing report must map to exit 1
    import gencluster.cli as cli
    from gencluster.graph import VerificationReport

    def fake(pair, horizon):
        return VerificationReport("d-equality", False, False, 1,
                                  [{"kind": "synthetic"}])

    monkeypatch.setattr(cli, "verify_d_equality", fake)
    cfg = write(tmp_path, "pair.json", PAIR2)
    assert main(["verify", "d-equality", "--config", cfg]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("error", [
    RuntimeError("canonical key collision: matrices differ"),
    InconsistentDegreeTransportError("equivalent seeds fail to transport"),
    NotLaurentError("leading monomial does not divide"),
])
def test_internal_error_exit_code(tmp_path, capsys, monkeypatch, error):
    # an engine bug is neither a verdict (1) nor a usage error (2)
    import gencluster.cli as cli

    def fake(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "explore", fake)
    cfg = write(tmp_path, "a2.json", A2)
    assert main(["explore", "--config", cfg]) == 3
    assert capsys.readouterr().err == "internal error: %s\n" % error


def test_console_entry_point(tmp_path):
    cfg = write(tmp_path, "a2.json", A2)
    # the child process imports the same gencluster as this one
    src = os.path.dirname(os.path.dirname(gencluster.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gencluster.cli", "explore",
         "--config", cfg, "--depth", "10"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["vertex_count"] == 5
    assert "complete" in proc.stderr
