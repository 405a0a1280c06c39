"""Exact computation with cluster patterns whose exchange relations have
higher-degree reciprocal polynomials.

Quick start::

    from gencluster import ClusterPattern, explore

    pattern = ClusterPattern.build([[0, 1], [-1, 0]], degrees=(2, 1))
    graph = explore(pattern, depth_limit=12)
    print(graph.summary())          # 6 vertices, 6 edges, complete

Library indices are 0-based; the CLI and JSON configs are 1-based.
"""

from .errors import (ConfigError, DimensionError, EvaluationError,
                     GenClusterError, IncompatibleInitialDataError,
                     InconsistentDegreeTransportError,
                     NegativeCoefficientExponentError,
                     NonMonomialCoefficientError, NotHomogeneousError,
                     NotLaurentError, NotSkewSymmetrizableError,
                     UnknownVariableError)
from .semifield import GroupRingElement, SemifieldElement, TropicalSemifield
from .laurent import LaurentPolynomial
from .seeds import (DEFAULT_RNG_SEED, ClusterFormulaReport, ClusterPattern,
                    ExchangeMatrix, MutationPair, Seed, apply_path,
                    check_classic_compat, check_cluster_formula,
                    coefficient_walk, find_skew_symmetrizer, hat_y,
                    mutate_matrix, mutate_seed)
from .invariants import (PrincipalPattern, c_matrix, check_cg_duality,
                         d_matrix_by_recurrence, d_matrix_from_laurent,
                         f_polynomial, f_polynomials, g_matrix, g_vector,
                         principal_companion, principal_pattern,
                         separation_reconstruct)
from .graph import (ExchangeGraph, VerificationReport, VertexRecord,
                    canonical_form, compatibility, explore,
                    verify_all_connected_subgraphs, verify_compatible_sets,
                    verify_connected_subgraph, verify_dvector_trichotomy,
                    verify_initial_cluster_recovery)
from .correspondence import (AlgebraPair, make_pair, tree_paths,
                             verify_d_equality, verify_identification)
from .config import (pair_from_config, parse_path, pattern_from_config,
                     pattern_to_config, seed_dump)

__version__ = "0.1.0"

__all__ = [
    "AlgebraPair", "ClusterFormulaReport", "ClusterPattern", "ConfigError",
    "DEFAULT_RNG_SEED", "DimensionError", "EvaluationError", "ExchangeGraph",
    "ExchangeMatrix", "GenClusterError", "GroupRingElement",
    "IncompatibleInitialDataError", "InconsistentDegreeTransportError",
    "LaurentPolynomial", "MutationPair", "NegativeCoefficientExponentError",
    "NonMonomialCoefficientError", "NotHomogeneousError", "NotLaurentError",
    "NotSkewSymmetrizableError", "PrincipalPattern", "Seed",
    "SemifieldElement", "TropicalSemifield", "UnknownVariableError",
    "VerificationReport", "VertexRecord", "apply_path", "c_matrix",
    "canonical_form", "check_cg_duality", "check_classic_compat",
    "check_cluster_formula", "coefficient_walk", "compatibility",
    "d_matrix_by_recurrence", "d_matrix_from_laurent", "explore",
    "f_polynomial", "f_polynomials", "find_skew_symmetrizer", "g_matrix",
    "g_vector", "hat_y", "make_pair", "mutate_matrix", "mutate_seed",
    "pair_from_config", "parse_path", "pattern_from_config",
    "pattern_to_config", "principal_companion", "principal_pattern",
    "seed_dump", "separation_reconstruct", "tree_paths",
    "verify_all_connected_subgraphs", "verify_compatible_sets",
    "verify_connected_subgraph", "verify_d_equality",
    "verify_dvector_trichotomy", "verify_identification",
    "verify_initial_cluster_recovery",
]
