"""Credit-risk stress-testing engine.

Transforms through-the-cycle rating-transition parameters into stressed
point-in-time parameters, propagates loan portfolios over multi-year
horizons, computes the through-the-cycle portfolio implied by a
parameterization, and diagnoses spurious default-probability projections
caused by parameter/portfolio inconsistency.
"""
from .charts import emit_svg_chart
from .diagnostics import (DivergenceReport, SpuriousReport, ValidationReport,
                          classify_pd_path, compare_portfolios,
                          detect_spurious_dynamics, run_validation)
from .errors import (ConvergenceError, InputError, PrimitivityError,
                     TTCStressError)
from .io_formats import (emit_matrix_csv, emit_path_csv, parse_matrix_csv,
                         parse_path_csv, parse_scenario_csv, parse_vector_csv)
from .macro import (CreditIndexSeries, MacroModel, MacroScenario,
                    economy_state, economy_state_path, estimate_p_rho,
                    fit_macro_model)
from .normal import std_normal_cdf, std_normal_inv_cdf
from .propagation import (OriginationVector, Portfolio, ProjectionPath,
                          average_pd, project_path, propagate_step)
from .transition import (TransitionMatrix, pit_pd, stress_transition_matrix,
                         validate_transition_matrix)
from .ttc import (PerronReport, TTCResult, build_m_p, is_primitive,
                  solve_ttc, solve_ttc_direct, solve_ttc_iterative,
                  verify_perron_structure)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "CreditIndexSeries",
    "DivergenceReport",
    "InputError",
    "MacroModel",
    "MacroScenario",
    "OriginationVector",
    "PerronReport",
    "Portfolio",
    "PrimitivityError",
    "ProjectionPath",
    "SpuriousReport",
    "TTCResult",
    "TTCStressError",
    "TransitionMatrix",
    "ValidationReport",
    "average_pd",
    "build_m_p",
    "classify_pd_path",
    "compare_portfolios",
    "detect_spurious_dynamics",
    "economy_state",
    "economy_state_path",
    "emit_matrix_csv",
    "emit_path_csv",
    "emit_svg_chart",
    "estimate_p_rho",
    "fit_macro_model",
    "is_primitive",
    "parse_matrix_csv",
    "parse_path_csv",
    "parse_scenario_csv",
    "parse_vector_csv",
    "pit_pd",
    "project_path",
    "propagate_step",
    "run_validation",
    "solve_ttc",
    "solve_ttc_direct",
    "solve_ttc_iterative",
    "std_normal_cdf",
    "std_normal_inv_cdf",
    "stress_transition_matrix",
    "validate_transition_matrix",
    "verify_perron_structure",
]
