"""Weighted graph Laplacians and their short-time behavior.

The library builds Laplacians of weighted graphs (symmetric edge weights b,
killing term c, vertex measure m), evaluates matrix elements of the heat
semigroup e^{-tL} and the unitary group e^{-itL}, and certifies the
short-time picture numerically: the matrix element between two vertices
behaves like const * t^d where d is the hop distance, with explicit
constants bounding the error at the next order, while t * log(element)
tends to zero (no Gaussian-type short-time scaling).
"""

from .asymptotics import (BoundReport, ExponentFit, VanishingOrderReport,
                          leading_exponent_fit, leading_term_check,
                          pair_verification_reports, semigroup_bound,
                          taylor_bound, unitary_bound, vanishing_order_check,
                          varadhan_diagnostic, verification_reports)
from .generators import (complete_graph, cycle_graph, from_spec, integer_line,
                         path_graph, random_connected_graph, random_graph,
                         star_graph)
from .graphio import (GraphFormatError, dump_graph, load_graph, parse_graph,
                      save_graph)
from .graphs import (INFINITE, ProceduralGraph, WeightedGraph, ball,
                     combinatorial_distance, degree, distances_from,
                     is_connected, validate)
from .moments import (EnumerationBudgetError, MomentTable, UnknownAbove,
                      first_nonzero_moments, first_nonzero_orders,
                      leading_moment_order, moment,
                      moment_table, path_sum_moment)
from .operators import (LaplacianOperator, WeightedVector, dense_matrices,
                        inner, quadratic_form)
from .spectral import (ScalarFunction, SpectralDecomposition, SpectralMeasure,
                       decompose, functional_calculus, heat_element,
                       polarized_measure, propagate_heat, propagate_wave,
                       spectral_measure, spectral_measure_diag,
                       spectral_radius_bound, wave_element)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "EnumerationBudgetError", "ExponentFit", "GraphFormatError",
    "INFINITE", "LaplacianOperator", "MomentTable", "ProceduralGraph",
    "ScalarFunction", "SpectralDecomposition", "SpectralMeasure",
    "UnknownAbove", "VanishingOrderReport", "WeightedGraph", "WeightedVector",
    "ball", "combinatorial_distance", "complete_graph", "cycle_graph",
    "decompose", "degree", "dense_matrices", "distances_from", "dump_graph",
    "first_nonzero_moments", "first_nonzero_orders", "from_spec",
    "functional_calculus", "heat_element", "inner", "integer_line", "is_connected",
    "leading_exponent_fit", "leading_moment_order", "leading_term_check",
    "load_graph", "moment", "moment_table", "pair_verification_reports",
    "parse_graph", "path_graph", "path_sum_moment", "polarized_measure",
    "propagate_heat", "propagate_wave", "quadratic_form",
    "random_connected_graph", "random_graph", "save_graph", "semigroup_bound",
    "spectral_measure", "spectral_measure_diag", "spectral_radius_bound",
    "star_graph", "taylor_bound", "unitary_bound", "validate",
    "vanishing_order_check", "varadhan_diagnostic", "verification_reports",
    "wave_element",
]
