"""Coupling parameters for the two-component Ginzburg-Landau system.

The system couples two complex order parameters through a quartic potential
with coefficients (A_plus, A_minus, B, t_plus, t_minus).  Everything downstream
(well-posedness, the a priori amplitude bound, the tail expansion) requires the
coupling matrix [[A_plus, B], [B, A_minus]] to be positive definite with
positive asymptotic moduli t_plus, t_minus; constructing a CouplingParams
checks this, strictly (B^2 < A_plus*A_minus, equality rejected), and that
the products the residual forms, t^2, A t^2 and |B| t^2, are finite floats.
"""

from __future__ import annotations

import json
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
    definiteness of the quartic form degenerates there.  The residual forms
    t_pm^2, A_pm t_pm^2 and B t_mp^2, so each of them, with |B|, must be a
    finite float too; rational inputs are checked exactly.
    """
    for name in ("A_plus", "A_minus", "t_plus", "t_minus"):
        value = getattr(params, name)
        if not value > 0:
            raise HypothesisViolation(f"{name} > 0 fails ({name}={value})")
    b2, a2 = params.B * params.B, params.A_plus * params.A_minus
    if not b2 < a2:
        raise HypothesisViolation(f"B^2 < A_plus*A_minus fails (B^2={b2}, "
                                  f"A_plus*A_minus={a2}; equality not allowed)")
    p = params
    tp2, tm2 = p.t_plus * p.t_plus, p.t_minus * p.t_minus
    for name, value in (("t_plus^2", tp2), ("t_minus^2", tm2),
                        ("A_plus*t_plus^2", p.A_plus * tp2),
                        ("A_minus*t_minus^2", p.A_minus * tm2),
                        ("|B|*t_minus^2", abs(p.B) * tm2),
                        ("|B|*t_plus^2", abs(p.B) * tp2)):
        try:
            finite = math.isfinite(value)
        except OverflowError:   # an int or a rational beyond the float range
            finite = False
        if not finite:
            raise HypothesisViolation(f"{name} is not a finite float")
    return params


def derived_bounds(params: CouplingParams) -> tuple:
    """(Lambda_+^2, Lambda_-^2), Lambda_pm^2 = t_pm^2 + max(B, 0) t_mp^2/A_pm,
    the bounds on f_pm^2 that the maximum principle proves for a positive
    solution (Protter & Weinberger, Maximum Principles in Differential
    Equations, 1967, ch. 3).

    With x_pm = f_pm^2 - t_pm^2 the equation reads
    f'' + f'/r = [n^2/r^2 + A_pm x_pm + B x_mp] f_pm, whose left side is
    <= 0 at a maximum of f_pm > 0 (a supremum only approached as r -> oo is
    t_pm), so A_pm x_pm + B x_mp <= 0 there.  B > 0: x_mp >= -t_mp^2 gives
    A_pm x_pm <= B t_mp^2.  B <= 0: the weights c_+ = sqrt(A_-) and
    c_- = sqrt(A_+) have A_+ c_+ > |B| c_- and A_- c_- > |B| c_+, so were
    m = max(sup x_+/c_+, sup x_-/c_-) > 0, attained say by x_+ = m c_+, then
    0 >= A_+ x_+ + B x_- >= m (A_+ c_+ - |B| c_-) > 0; hence f_pm <= t_pm.

    The argument holds at a nodal maximum of grid.radial_operator's rows,
    where each difference u[j] - u[i] <= 0 has a negative coefficient and
    pot >= 0, on every row: the origin row (a pinned origin is 0), the
    interior rows, and the far row, whose extra term rhs (f_pm - t_pm) is
    > 0 where f_pm(R_max) > t_pm.  `verify` still checks the bound rather
    than assumes it: a converged profile solves the rows only to its
    residual and is positive only to POSITIVITY_TOL.
    """
    p = params
    tp2, tm2 = p.t_plus * p.t_plus, p.t_minus * p.t_minus
    b = max(p.B, 0)
    return tp2 + b * tm2 / p.A_plus, tm2 + b * tp2 / p.A_minus


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
    for name, t2 in (("t_plus", tp2), ("t_minus", tm2)):
        if t2 <= 0:
            raise NonPositiveDensity(f"{name}^2 = {t2} <= 0")
    params = CouplingParams(
        A_plus=(bec.m1 / bec.m2) * bec.g1,
        A_minus=(bec.m2 / bec.m1) * bec.g2,
        B=bec.g12,
        t_plus=math.sqrt(tp2),
        t_minus=math.sqrt(tm2),
    )
    epsilon = bec.hbar / (bec.m1 * bec.m2) ** 0.25
    return params, epsilon


def normalize_degrees(n_plus: int, n_minus: int) -> DegreePair:
    """Reduce a degree pair to nonnegative winding numbers: a negative
    degree is equivalent to conjugating its component, which leaves the
    radial profile unchanged."""
    return DegreePair(abs(int(n_plus)), abs(int(n_minus)))


# ---------------------------------------------------------------------------
# strict JSON parsing, shared by run configs and profile files


def parse_json(text: str, error: type = ValueError):
    """json.loads, raising `error` instead of RecursionError on nesting too
    deep for the parser."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise error("JSON nested too deeply to parse") from exc


def is_number(value) -> bool:
    """A finite JSON number; true and false do not count, nor an integer
    beyond the float range."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:       # an int too large to convert to float
        return False


# orjson reads an integer literal outside [-2^63, 2^64) as a float and
# stdlib json as an int, so the integer fields of a file stay below 2^63 in
# magnitude
INT_BOUND = 2 ** 63


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
    """The integer windings (n_plus, n_minus) of a JSON object, each of
    magnitude below INT_BOUND; the caller decides what a negative one
    means."""
    json_object(obj, ("n_plus", "n_minus"), "degrees")
    if not all(is_integer(n) and abs(n) < INT_BOUND for n in obj.values()):
        raise ValueError("degrees must be integers n_plus and n_minus "
                         "of magnitude below 2^63")
    return obj["n_plus"], obj["n_minus"]
