"""Command line front end.

Exit codes: 0 all checks passed (or command succeeded), 1 a verifier
found violations, 2 the command could not run (usage, config, or a
check that needs a completed exploration on an unfinished one), 3 an
internal error of the engine (a key collision, a failed degree transport
or a mutation leaving the Laurent ring), never a verdict on the input.

All directions, paths and matrix indices in configs, flags and reports
are 1-based; see the library docstrings for the 0-based API.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import (pair_from_config, parse_path, pattern_from_config,
                     seed_dump)
from .correspondence import verify_d_equality, verify_identification
from .errors import (GenClusterError, InconsistentDegreeTransportError,
                     NotLaurentError)
from .graph import (explore, verify_all_connected_subgraphs,
                    verify_compatible_sets, verify_connected_subgraph,
                    verify_dvector_trichotomy, verify_initial_cluster_recovery)
from .invariants import (PrincipalPattern, check_cg_duality,
                         principal_companion, separation_reconstruct)
from .seeds import DEFAULT_RNG_SEED, check_cluster_formula


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise _Usage("cannot read %s: %s" % (path, e))
    except json.JSONDecodeError as e:
        raise _Usage("%s is not valid JSON: %s" % (path, e))


class _Usage(Exception):
    pass


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _explore_from_args(pattern, args):
    if args.depth is None and args.max_vertices is None:
        args.max_vertices = 2000
    return explore(pattern, depth_limit=args.depth,
                   vertex_limit=args.max_vertices)


def _payload_exit(payload, passed, out):
    """Write a check's JSON payload, its status line; exit 0 or 1."""
    _emit(json.dumps(payload, indent=2) + "\n", out)
    print("%s: %s" % (payload["check"], payload["status"]), file=sys.stderr)
    return 0 if passed else 1


def _report_exit(report, out):
    return _payload_exit(report.to_json_dict(), report.passed, out)


def _cmd_mutate(args):
    pattern = pattern_from_config(_load_json(args.config))
    path = parse_path(args.path, pattern.n)
    _emit(json.dumps(seed_dump(pattern, path), indent=2) + "\n", args.out)
    return 0


def _cmd_explore(args):
    pattern = pattern_from_config(_load_json(args.config))
    graph = _explore_from_args(pattern, args)
    if args.format == "dot":
        text = graph.to_dot(label_dmatrix=args.dmatrix)
    else:
        text = json.dumps(graph.to_json_dict(), indent=2) + "\n"
    _emit(text, args.out)
    print(graph.summary(), file=sys.stderr)
    return 0


def _require_complete(graph, what):
    if not graph.complete:
        raise _Usage("%s needs a completed exploration; got %s "
                     "(raise --depth / --max-vertices)" % (what, graph.summary()))


def _cmd_verify(args):
    check = args.check
    if check in ("d-equality", "bijection"):
        pair = pair_from_config(_load_json(args.config))
        if check == "d-equality":
            report = verify_d_equality(pair, horizon=args.horizon)
        else:
            report = verify_identification(pair, args.horizon)
        return _report_exit(report, args.out)

    pattern = pattern_from_config(_load_json(args.config))

    if check == "cluster-formula":
        report = check_cluster_formula(
            pattern, parse_path(args.path, pattern.n),
            t0_path=parse_path(args.t0_path, pattern.n),
            trials=args.trials, rng_seed=args.rng_seed)
        payload = {"check": check,
                   "status": "pass" if report.ok else "fail",
                   "t_path": [k + 1 for k in report.t_path],
                   "t0_path": [k + 1 for k in report.t0_path],
                   "trials": report.trials,
                   "checked": report.checked,
                   "determinants": sorted({str(d) for d in report.determinants}),
                   "failures": report.failures}
        return _payload_exit(payload, report.ok, args.out)

    if check == "cg-duality":
        principal = (pattern if isinstance(pattern, PrincipalPattern)
                     else principal_companion(pattern))
        graph = _explore_from_args(principal, args)
        violations = []
        for rec in graph.vertices:
            if not check_cg_duality(principal, rec.path, rec.reached):
                violations.append({"path": [k + 1 for k in rec.path]})
        payload = {"check": check,
                   "status": "pass" if not violations else "fail",
                   "complete": graph.complete,
                   "seeds_checked": graph.vertex_count(),
                   "violations": violations}
        return _payload_exit(payload, not violations, args.out)

    if check == "separation":
        principal = principal_companion(pattern)
        graph = _explore_from_args(pattern, args)
        violations = []
        checked = 0
        for rec in graph.vertices:
            for i in range(pattern.n):
                y_rec, x_rec = separation_reconstruct(pattern, principal,
                                                      rec.path, i)
                checked += 1
                if y_rec != rec.reached.y[i] or x_rec != rec.reached.x[i]:
                    violations.append({"path": [k + 1 for k in rec.path],
                                       "position": i + 1})
        payload = {"check": check,
                   "status": "pass" if not violations else "fail",
                   "complete": graph.complete,
                   "values_checked": checked,
                   "violations": violations}
        return _payload_exit(payload, not violations, args.out)

    graph = _explore_from_args(pattern, args)
    _require_complete(graph, check)
    if check == "connected-subgraph":
        if args.subset is not None:
            members = [s.strip() for s in args.subset.split(",") if s.strip()]
            report = verify_connected_subgraph(graph, members)
        else:
            report = verify_all_connected_subgraphs(graph)
    elif check == "d-trichotomy":
        report = verify_dvector_trichotomy(graph)
    elif check == "compatible-sets":
        report = verify_compatible_sets(graph)
    elif check == "initial-recovery":
        report = verify_initial_cluster_recovery(graph)
    else:  # pragma: no cover - argparse restricts choices
        raise _Usage("unknown check %r" % check)
    return _report_exit(report, args.out)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gencluster",
        description="Exact seed mutation with higher-degree exchange "
                    "polynomials: mutate seeds, map exchange graphs, run "
                    "structure checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mutate", help="apply a mutation path; print the seed")
    p.add_argument("--config", required=True, help="pattern config (JSON)")
    p.add_argument("--path", default="",
                   help="comma-separated 1-based directions, e.g. 1,2,1")
    p.add_argument("--out", help="write output to this file")
    p.set_defaults(func=_cmd_mutate)

    p = sub.add_parser("explore", help="map the exchange graph")
    p.add_argument("--config", required=True)
    p.add_argument("--depth", type=int)
    p.add_argument("--max-vertices", type=int,
                   help="vertex cap (default 2000 if no --depth)")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--dmatrix", action="store_true",
                   help="label dot vertices with denominator matrices")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("verify", help="run a structure check")
    p.add_argument("check", choices=(
        "connected-subgraph", "d-trichotomy", "compatible-sets",
        "initial-recovery", "d-equality", "bijection", "cluster-formula",
        "cg-duality", "separation"))
    p.add_argument("--config", required=True,
                   help="pattern config; {left, right} pair config for "
                        "d-equality and bijection")
    p.add_argument("--depth", type=int)
    p.add_argument("--max-vertices", type=int)
    p.add_argument("--subset",
                   help="connected-subgraph only: comma-separated variable "
                        "serializations (default: every subset of every "
                        "cluster)")
    p.add_argument("--horizon", type=int, default=6,
                   help="tree radius for d-equality / bijection")
    p.add_argument("--path", default="", help="cluster-formula: target seed")
    p.add_argument("--t0-path", dest="t0_path", default="",
                   help="cluster-formula: base seed")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--rng-seed", type=int, default=DEFAULT_RNG_SEED)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.func(args)
    except (RuntimeError, InconsistentDegreeTransportError,
            NotLaurentError) as e:
        print("internal error: %s" % e, file=sys.stderr)
        return 3
    except (_Usage, GenClusterError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def entry():  # console script hook
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
