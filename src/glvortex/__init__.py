"""Symmetric vortex solver and verifier for two-component Ginzburg-Landau
systems: radial profiles f_pm(r) for a given coefficient set and degree pair,
plus quantitative checks (quantization, amplitude bound, tail asymptotics,
certified envelopes, second variation, monotonicity)."""

from .asymptotics import (EnvelopeSpec, IllConditionedFit, SelectionFailed,
                          TailExpansion, envelope_bounds, envelope_check,
                          leading_coeffs, second_coeffs, select_envelope,
                          tail_fit)
from .diagnostics import (EigenFailure, MonotonicityLabel,
                          amplitude_bound_check, monotonicity_classify,
                          near_origin_order, pohozaev_residual,
                          quantization_check, second_variation_min_eig, verify)
from .grid import (BadBoundarySpec, BadGridSpec, LengthMismatch, RadialGrid,
                   RadialOperator, build_grid, quadrature, radial_operator)
from .model import (BecParams, CouplingParams, DegreePair,
                    HypothesisViolation, NonPositiveDensity, bec_to_gl,
                    derived_bounds, normalize_degrees, validate)
from .solver import (NoConvergence, Profile, SingularJacobian, SolveOptions,
                     SolveReport, continuation_solve, continuation_sweep,
                     initial_guess, jacobian, newton_solve, profile_from_json,
                     profile_to_json, residual, residual_norm)

__version__ = "0.1.0"
