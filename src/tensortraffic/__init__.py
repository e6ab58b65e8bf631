"""Traffic-style trace calculus on tensor matrix spaces.

Linear graphs and their trace forms, the set-partition Möbius calculus that
relates elementary and injective traces, decomposition of permutation-
invariant states, exact large-N limits of Haar word tensors on cacti, and a
reproducible Monte-Carlo harness that measures the asymptotic freeness of
tensor products of Haar unitaries under non-tracial states.
"""

__version__ = "0.1.0"

from .errors import (IllConditionedError, InvalidArgumentError,
                     NotInvariantError, NumericalFailureError,
                     ProbeFailureError, ResourceLimitError,
                     TensorTrafficError)
from .partitions import SetPartition, enumerate_partitions, join, leq, meet, mobius
from .graphs import (LinearGraph, adjoint_graph, canonical_form,
                     component_count, disjoint_union, graph_from_json,
                     graph_to_json, kernel, minimal_graph, quotient)
from .invariants import (ColoredComponentGraph, ForestOfTEC, ccg_balance,
                         classify_labeling, colored_component_graph,
                         cutting_edges, eta, forest_of_tec, is_forest_of_cacti,
                         is_valid, is_well_oriented, leaf_count,
                         leaf_monotonicity_check, prune)
from .operands import StateSpec, TensorOperand
from .traces import (contraction_plan, decompose_invariant_state, graph_trace,
                     graph_trace_stack, injective_graph_trace,
                     injective_trace_stack, ms_optimality_witness,
                     randomized_coefficient_extract, tau_trace, zeta_trace)
from .words import StarWord, all_words, free_reduce, is_trivial
from .haar import (FreenessCertificate, Linearization, haar_limit_injective,
                   linearize, predict_freeness_limit, split_graphs,
                   splitting_identity_check)
from .sampling import (MCReport, RngStream, apply_state, build_w_family,
                       evaluate_word, mc_run, norm_absorption_demo,
                       sample_haar_unitary, symmetrize, word_matrix)
from .characters import (PermutationWord, Signature, conditional_expectation_sd,
                         cycle_factorization_check, leg_permutation,
                         left_regular_check, normalized_character,
                         permuted_tensor_trace)
