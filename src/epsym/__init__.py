"""epsym: exact calculus for partial-commutation symmetries.

A commutation pattern (symmetric 0/1 matrix, zero diagonal) interpolates
between classical and free independence.  This package provides the
pattern-aware noncrossing partition combinatorics, the mixed
moment-cumulant formula, exact sparse tensor-map calculus with the
pattern-gated two-leg maps, the reduction that realises partition
membership indicators as composed maps, the pattern's finite symmetry
groups, and a word-problem solver for the associated involution group.
"""

from .epsmat import (EpsilonMatrix, Permutation, format_eps_text, make_epsilon,
                     parse_eps_text, preset, validate_index)
from .partitions import (Category, SetPartition, TwoRowPartition,
                         enumerate_partitions, find_case2_index,
                         find_noncrossing_subpartition, format_partition,
                         in_nc_eps, is_eps_noncrossing, kernel, nc_eps_set,
                         parse_partition)
from .cumulants import CumulantSpec, kappa_pi, moment
from .tensormaps import (BAAR, CROSS, DREIPARTROT, IDID, PAAR, PAARBAAR,
                         VIERPARTROT, TensorMap, box_calculus_suite,
                         eps_as_map, free_neighbors_map,
                         intertwiner_identity_suite, r_map, s_box, t_pi)
from .indicator import (AlgorithmTrace, Step, compose_trace_map,
                        definetti_identity_report, evaluate_trace,
                        run_algorithm, verify_oracle)
from .groups import (PermGroup, Representation, automorphism_group,
                     check_coxeter_rep, check_eps_exchangeability, coxeter_rep,
                     entries_commute, perm_representation,
                     permutation_satisfies_R_eps, projection_pair_representation,
                     rep_check, word_equal, word_reduce)
from .report import CheckReport, CheckResult, SuiteReport

__all__ = [
    "EpsilonMatrix", "Permutation", "make_epsilon", "preset", "parse_eps_text",
    "format_eps_text", "validate_index",
    "SetPartition", "TwoRowPartition", "Category", "kernel",
    "enumerate_partitions", "is_eps_noncrossing", "in_nc_eps",
    "nc_eps_set", "find_noncrossing_subpartition", "find_case2_index",
    "parse_partition", "format_partition",
    "CumulantSpec", "kappa_pi", "moment",
    "TensorMap", "t_pi", "r_map", "s_box", "eps_as_map", "free_neighbors_map",
    "PAAR", "BAAR", "IDID", "CROSS", "PAARBAAR", "DREIPARTROT", "VIERPARTROT",
    "intertwiner_identity_suite", "box_calculus_suite",
    "AlgorithmTrace", "Step", "run_algorithm", "compose_trace_map",
    "evaluate_trace", "verify_oracle", "definetti_identity_report",
    "PermGroup", "Representation", "automorphism_group",
    "check_eps_exchangeability",
    "permutation_satisfies_R_eps", "coxeter_rep", "check_coxeter_rep",
    "word_reduce", "word_equal", "rep_check", "perm_representation",
    "projection_pair_representation", "entries_commute",
    "CheckReport", "CheckResult", "SuiteReport",
]
