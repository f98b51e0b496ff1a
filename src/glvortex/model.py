"""Coupling parameters for the two-component Ginzburg-Landau system.

The system couples two complex order parameters through a quartic potential
with coefficients (A_plus, A_minus, B, t_plus, t_minus).  Everything downstream
(well-posedness, the a priori amplitude bound, the tail expansion) requires the
coupling matrix [[A_plus, B], [B, A_minus]] to be positive definite with
positive asymptotic moduli t_plus, t_minus; constructing a CouplingParams
checks this, strictly (B^2 < A_plus*A_minus, equality rejected).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


class HypothesisViolation(ValueError):
    """A coupling-parameter inequality fails (names the failed inequality)."""


class NonPositiveDensity(ValueError):
    """A condensate mapping produced a non-positive squared modulus t^2."""


@dataclass(frozen=True)
class CouplingParams:
    """The five coefficients of the coupled system; construction validates."""

    A_plus: float
    A_minus: float
    B: float
    t_plus: float
    t_minus: float

    def __post_init__(self):
        validate(self)


@dataclass(frozen=True)
class DegreePair:
    """Winding numbers of the two components, normalized to be nonnegative."""

    n_plus: int
    n_minus: int

    def __post_init__(self):
        if self.n_plus < 0 or self.n_minus < 0:
            raise ValueError("degrees must be normalized to nonnegative; "
                             "use normalize_degrees")


@dataclass(frozen=True)
class DerivedBounds:
    """Spectral quantities controlling the a priori amplitude bound.

    lambda_s is the smallest eigenvalue of [[A_plus, B], [B, A_minus]];
    Lambda_sq = min(2M/lambda_s, t_plus^2 + t_minus^2) bounds
    f_plus^2 + f_minus^2 pointwise for any solution.
    """

    lambda_s: float
    M: float
    Lambda_sq: float


@dataclass(frozen=True)
class BecParams:
    """Two-species condensate parameters (masses, interactions, chemical
    potentials).  hbar is an explicit input so unit systems stay the
    caller's choice."""

    m1: float
    m2: float
    g1: float
    g2: float
    g12: float
    mu1: float
    mu2: float
    hbar: float = 1.0


def validate(params: CouplingParams) -> CouplingParams:
    """Return params unchanged iff all coupling inequalities hold.

    Raises HypothesisViolation naming the failed inequality otherwise.
    Strictness matters: B^2 = A_plus*A_minus is rejected because positive
    definiteness of the quartic form degenerates there.
    """
    if not params.A_plus > 0:
        raise HypothesisViolation(f"A_plus > 0 fails (A_plus={params.A_plus})")
    if not params.A_minus > 0:
        raise HypothesisViolation(f"A_minus > 0 fails (A_minus={params.A_minus})")
    if not params.t_plus > 0:
        raise HypothesisViolation(f"t_plus > 0 fails (t_plus={params.t_plus})")
    if not params.t_minus > 0:
        raise HypothesisViolation(f"t_minus > 0 fails (t_minus={params.t_minus})")
    if not params.B * params.B < params.A_plus * params.A_minus:
        raise HypothesisViolation(
            "B^2 < A_plus*A_minus fails "
            f"(B^2={params.B * params.B}, A_plus*A_minus={params.A_plus * params.A_minus}; "
            "equality not allowed)")
    return params


def derived_bounds(params: CouplingParams) -> DerivedBounds:
    """Compute lambda_s, M and the amplitude bound Lambda^2.

    lambda_s uses the closed 2x2 eigenvalue formula, exact at machine
    precision.  M = max(A_plus*t_plus^2 + B*t_minus^2,
    A_minus*t_minus^2 + B*t_plus^2) and Lambda^2 = min(2M/lambda_s,
    t_plus^2 + t_minus^2).
    """
    p = params
    disc = math.sqrt((p.A_plus - p.A_minus) ** 2 + 4.0 * p.B * p.B)
    lambda_s = 0.5 * (p.A_plus + p.A_minus - disc)
    tp2 = p.t_plus * p.t_plus
    tm2 = p.t_minus * p.t_minus
    M = max(p.A_plus * tp2 + p.B * tm2, p.A_minus * tm2 + p.B * tp2)
    Lambda_sq = min(2.0 * M / lambda_s, tp2 + tm2)
    return DerivedBounds(lambda_s=lambda_s, M=M, Lambda_sq=Lambda_sq)


def bec_to_gl(bec: BecParams) -> tuple[CouplingParams, float]:
    """Map condensate parameters to coupling parameters and the core
    length scale epsilon.

    Rescaling the two wave functions by (m2/m1)^(1/4) and (m1/m2)^(1/4)
    eliminates the masses:
        A_plus  = (m1/m2) g1,   A_minus = (m2/m1) g2,   B = g12,
        t_plus^2  = (mu1 g2 - mu2 g12)/(g1 g2 - g12^2) * sqrt(m2/m1),
        t_minus^2 = (mu2 g1 - mu1 g12)/(g1 g2 - g12^2) * sqrt(m1/m2),
        epsilon^2 = hbar^2 / sqrt(m1 m2).

    Raises HypothesisViolation if g1*g2 - g12^2 <= 0 and NonPositiveDensity
    if either squared modulus comes out non-positive (unphysical chemical
    potentials).
    """
    if bec.m1 <= 0 or bec.m2 <= 0:
        raise HypothesisViolation("masses must be positive")
    det = bec.g1 * bec.g2 - bec.g12 * bec.g12
    if det <= 0:
        raise HypothesisViolation(
            f"g1*g2 - g12^2 > 0 fails (g1*g2={bec.g1 * bec.g2}, g12^2={bec.g12 ** 2})")
    ratio = math.sqrt(bec.m2 / bec.m1)
    tp2 = (bec.mu1 * bec.g2 - bec.mu2 * bec.g12) / det * ratio
    tm2 = (bec.mu2 * bec.g1 - bec.mu1 * bec.g12) / det / ratio
    if tp2 <= 0:
        raise NonPositiveDensity(f"t_plus^2 = {tp2} <= 0")
    if tm2 <= 0:
        raise NonPositiveDensity(f"t_minus^2 = {tm2} <= 0")
    params = CouplingParams(
        A_plus=(bec.m1 / bec.m2) * bec.g1,
        A_minus=(bec.m2 / bec.m1) * bec.g2,
        B=bec.g12,
        t_plus=math.sqrt(tp2),
        t_minus=math.sqrt(tm2),
    )
    epsilon = bec.hbar / (bec.m1 * bec.m2) ** 0.25
    return params, epsilon


def normalize_degrees(n_plus: int, n_minus: int) -> tuple[DegreePair, dict]:
    """Reduce a degree pair to nonnegative winding numbers.

    Negative degrees are equivalent to conjugating the corresponding
    component; the returned flags record which components were conjugated.
    """
    flags = {"conj_plus": n_plus < 0, "conj_minus": n_minus < 0}
    return DegreePair(abs(int(n_plus)), abs(int(n_minus))), flags


# ---------------------------------------------------------------------------
# strict JSON parsing, shared by run configs and profile files


def is_number(value) -> bool:
    """A finite JSON number; true and false do not count."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def is_integer(value) -> bool:
    """A JSON integer; true and false do not count."""
    return isinstance(value, int) and not isinstance(value, bool)


def json_object(obj, keys, where: str, exact: bool = True,
                error: type = ValueError) -> dict:
    """obj itself if it is a JSON object with exactly the given keys (only
    keys among them unless exact); raises `error` otherwise."""
    if not isinstance(obj, dict):
        raise error(f"{where} must be a JSON object")
    if not set(obj) <= set(keys) or (exact and len(obj) < len(keys)):
        raise error(f"{where}: expected keys {sorted(keys)}, "
                    f"got {sorted(obj)}")
    return obj


def _params_from_json(cls, obj, where: str):
    """A parameter record from a JSON object of one number per field."""
    keys = [f.name for f in fields(cls)]
    json_object(obj, keys, where)
    if not all(is_number(obj[k]) for k in keys):
        raise ValueError(f"{where} must be finite numbers")
    return cls(**{k: float(obj[k]) for k in keys})


def coupling_from_json(obj) -> CouplingParams:
    """Parse the five coupling parameters; construction validates them."""
    return _params_from_json(CouplingParams, obj, "coupling parameters")


def bec_from_json(obj) -> BecParams:
    """Parse the eight condensate parameters, hbar included."""
    return _params_from_json(BecParams, obj, "condensate parameters")


def degrees_from_json(obj) -> tuple:
    """The integer winding numbers (n_plus, n_minus) of a JSON object; the
    caller decides what a negative one means."""
    json_object(obj, ("n_plus", "n_minus"), "degrees")
    if not all(map(is_integer, obj.values())):
        raise ValueError("degrees must be integers n_plus and n_minus")
    return obj["n_plus"], obj["n_minus"]
