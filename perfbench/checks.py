"""The benchmark's own judgement of each CLI output.

Nothing here trusts a value the file under test reports about itself: the
residual is recomputed against a fixed tolerance, positivity and the echoed
inputs are read from the raw arrays, and `verify` runs with an explicit
tolerance section, so a change to the program's defaults cannot turn a
failing verdict into a pass.

A check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import json
import math

from workloads import sweep_b_values

RESIDUAL_TOL = 1e-10

# The verify tolerances of the program at the commit that defined this
# benchmark, passed explicitly to every `verify`.
VERIFY_SECTION = {"quantization_tol": 0.01, "pohozaev_tol": 0.01,
                  "origin_order_tol": 0.05, "bound_tol": 1e-8,
                  "hessian_tol": 1e-8, "tail_a_rel": 0.01, "tail_b_rel": 0.05}

# Checks every verdict must contain; tail coefficients are reported either
# as four comparisons or as one failed fit.
REQUIRED_CHECKS = ("residual_norm", "positivity_min", "amplitude_bound_margin",
                   "quantization_gap", "pohozaev_at_R_max",
                   "near_origin_order_plus", "near_origin_order_minus",
                   "hessian_min_eig", "envelope_sandwich")
TAIL_CHECKS = ("tail_a_plus", "tail_a_minus", "tail_b_plus", "tail_b_minus")

# Gates whose pass flag must follow from the reported value and the
# explicit tolerance: name -> (tolerance key, direction).
GATES = {"amplitude_bound_margin": ("bound_tol", "above"),
         "quantization_gap": ("quantization_tol", "below"),
         "pohozaev_at_R_max": ("pohozaev_tol", "below"),
         "hessian_min_eig": ("hessian_tol", "above")}

CHECK_NAMES = (REQUIRED_CHECKS + TAIL_CHECKS + ("tail_fit",))


def check_profile(text: str, case, solver) -> tuple[list, object]:
    """Judge a profile file that `solve` wrote for `case`.

    Returns (problems, profile); profile is None when it cannot be read.
    """
    try:
        raw = json.loads(text)
        profile = solver.profile_from_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable profile: {type(exc).__name__}: {exc}"], None
    problems = []
    keys = ("A_plus", "A_minus", "B", "t_plus", "t_minus")
    if tuple(raw["params"][k] for k in keys) != case.params:
        problems.append("profile params differ from the config")
    if (raw["degrees"]["n_plus"], raw["degrees"]["n_minus"]) != case.degrees:
        problems.append("profile degrees differ from the config")
    if raw["grid"]["N"] != case.N or raw["grid"]["R_max"] != case.R_max:
        problems.append("profile grid differs from the config")
    for comp in ("f_plus", "f_minus"):
        f = raw[comp]
        if len(f) != case.N + 1:
            problems.append(f"{comp} has {len(f)} nodes, expected {case.N + 1}")
            continue
        if not all(math.isfinite(v) for v in f):
            problems.append(f"{comp} is not finite")
        elif not f[0] >= -1e-12 or min(f[1:]) <= 0.0:
            problems.append(f"{comp} is not positive (min {min(f):.3e})")
    if problems:
        return problems, profile
    resnorm = solver.residual_norm(profile)
    if not resnorm <= RESIDUAL_TOL:
        problems.append(f"residual {resnorm:.3e} above {RESIDUAL_TOL:.0e}")
    return problems, profile


def check_verify(rc: int, stdout: str) -> tuple[list, list]:
    """Judge a `verify` run that exited 0 or 3.

    Returns (problems, failed check names).
    """
    try:
        lines = [json.loads(line) for line in stdout.splitlines() if line]
        names = [c["check"] for c in lines]
        failed = [c["check"] for c in lines if not c["pass"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable verify output: {exc}"], []
    problems = []
    missing = [n for n in REQUIRED_CHECKS if n not in names]
    if "tail_fit" not in names:
        missing += [n for n in TAIL_CHECKS if n not in names]
    if missing:
        problems.append(f"verify omitted checks {missing}")
    if (rc == 0) != (not failed):
        problems.append(f"verify exit code {rc} disagrees with failed "
                        f"checks {failed}")
    for c in lines:
        gate = GATES.get(c["check"])
        if gate is None:
            continue
        tol = VERIFY_SECTION[gate[0]]
        value = c["value"]
        if c["tolerance"] != tol:
            problems.append(f"{c['check']} used tolerance {c['tolerance']}, "
                            f"not {tol}")
        want = value >= -tol if gate[1] == "above" else value <= tol
        if bool(c["pass"]) != bool(want):
            problems.append(f"{c['check']} pass flag disagrees with "
                            f"value {value}")
    return problems, failed


def check_sweep(stdout: str) -> tuple[list, int]:
    """Judge a `sweep` output.

    Returns (problems, records that did not converge or miss a gate).
    """
    try:
        records = json.loads(stdout)["records"]
        got = [r["B"] for r in records]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable sweep output: {exc}"], 0
    want = sweep_b_values()
    if got != want:
        return [f"sweep reported B values {got}, expected {want}"], 0
    problems, bad = [], 0
    for r in records:
        if not r["converged"]:
            bad += 1
            continue
        values = (r["a_plus"], r["a_minus"], r["quantization_gap"],
                  r["hessian_min_eig"])
        if not all(isinstance(v, float) and math.isfinite(v) for v in values):
            problems.append(f"sweep record B={r['B']} has non-finite values")
        elif (r["quantization_gap"] > VERIFY_SECTION["quantization_tol"]
              or r["hessian_min_eig"] < -VERIFY_SECTION["hessian_tol"]):
            bad += 1
    return problems, bad
