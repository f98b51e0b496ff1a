"""Command-line front end: solves, sweeps, verification, tail reports, CSV export.

Structured results go to stdout as JSON (one object per check for `verify`);
plot data goes to CSV.  Exit codes: 0 success, 1 configuration/parse error,
2 solver non-convergence, 3 verification failure.  Errors are emitted as a
JSON object on stderr.  Configs are strict JSON: unknown keys are rejected so
typos cannot silently change a scientific run.  The solver does the stepping:
`solve` and `sweep` each make one solver call and format what it returns.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from . import asymptotics, diagnostics, model, solver
from .grid import build_grid


class ConfigError(ValueError):
    pass


_DEFAULT_GRID = {"R_max": 80.0, "N": 4000, "kind": "uniform", "stretch": None}
# the solve defaults live on solver.SolveOptions alone
_SOLVE_KEYS = {f.name for f in dataclasses.fields(solver.SolveOptions)}
_DEFAULT_VERIFY = {"residual_tol": 1e-10, "quantization_tol": 0.01,
                   "pohozaev_tol": 0.01, "origin_order_tol": 0.05,
                   "bound_tol": 1e-8, "hessian_tol": 1e-8, "tail_a_rel": 0.01,
                   "tail_b_rel": 0.05}
_ONE_PARAMS = "exactly one of params / bec_params must be present"


def _require_keys(obj: dict, allowed: set, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _sweep_b_values(sweep: dict, params: model.CouplingParams) -> list:
    """The B values of a sweep section, each checked against the hypothesis."""
    _require_keys(sweep, {"b_start", "b_stop", "b_step"}, "sweep")
    bounds = [sweep.get(k) for k in ("b_start", "b_stop", "b_step")]
    if not all(map(model.is_number, bounds)):
        raise ConfigError("sweep needs finite numbers b_start, b_stop, b_step")
    b_start, b_stop, b_step = map(float, bounds)
    if not (b_start <= b_stop and b_step > 0):
        raise ConfigError("sweep needs b_start <= b_stop and b_step > 0")
    n = int(round((b_stop - b_start) / b_step))
    vals = [b_start + k * b_step for k in range(n + 1)]
    b_values = [round(v, 12) for v in vals if v <= b_stop + 1e-12]
    for b in b_values:
        if not b * b < params.A_plus * params.A_minus:
            raise ConfigError(f"sweep value B={b} violates "
                              "B^2 < A_plus*A_minus")
    return b_values


def load_config(path: str | None, args=None) -> dict:
    """Read and validate a run configuration, applying flag overrides.

    A config with neither params nor bec_params is a verify config: only
    its verify tolerances and fit window are read.
    """
    if path is None:
        raise ConfigError("--config is required for this command")
    with open(path) as fh:
        raw = json.load(fh)
    _require_keys(raw, {"version", "params", "bec_params", "degrees", "grid",
                        "solve", "sweep", "fit_window", "verify"}, "config")
    if raw.get("version") != 1:
        raise ConfigError(f"unsupported config version {raw.get('version')!r}")
    if "params" in raw and "bec_params" in raw:
        raise ConfigError(_ONE_PARAMS)
    vdict = dict(_DEFAULT_VERIFY)
    _require_keys(raw.get("verify", {}), set(_DEFAULT_VERIFY), "verify")
    vdict.update(raw.get("verify", {}))
    window = raw.get("fit_window")
    if window is not None and not (
            isinstance(window, list) and len(window) == 2
            and all(map(model.is_number, window)) and window[0] < window[1]):
        raise ConfigError("fit_window must be [r_lo, r_hi] with finite "
                          f"r_lo < r_hi, got {window!r}")
    cfg = {"verify": vdict, "fit_window": window}
    if "params" not in raw and "bec_params" not in raw:
        return cfg

    if "params" in raw:
        cfg["params"] = model.coupling_from_json(raw["params"])
        cfg["epsilon"] = None
    else:
        cfg["params"], cfg["epsilon"] = model.bec_to_gl(
            model.bec_from_json(raw["bec_params"]))

    deg = raw.get("degrees", {})
    _require_keys(deg, {"n_plus", "n_minus"}, "degrees")
    if "n_plus" not in deg or "n_minus" not in deg:
        raise ConfigError("degrees must carry n_plus and n_minus")
    cfg["degrees"], cfg["conjugation"] = model.normalize_degrees(
        int(deg["n_plus"]), int(deg["n_minus"]))

    gdict = dict(_DEFAULT_GRID)
    _require_keys(raw.get("grid", {}), set(_DEFAULT_GRID), "grid")
    gdict.update(raw.get("grid", {}))
    _require_keys(raw.get("solve", {}), _SOLVE_KEYS, "solve")
    sdict = dict(raw.get("solve", {}))

    for flag, section, key in (("grid_n", gdict, "N"),
                               ("r_max", gdict, "R_max"),
                               ("tol", sdict, "tolerance"),
                               ("far_field", sdict, "far_field")):
        if getattr(args, flag, None) is not None:
            section[key] = getattr(args, flag)

    cfg["grid"] = build_grid(gdict["R_max"], int(gdict["N"]), gdict["kind"],
                             gdict.get("stretch"))
    cfg["options"] = solver.SolveOptions(**sdict)
    if "sweep" in raw:
        cfg["sweep"] = _sweep_b_values(raw["sweep"], cfg["params"])
    return cfg


def _run_config(args) -> dict:
    """The config of a command that solves: params are required."""
    cfg = load_config(args.config, args)
    if "params" not in cfg:
        raise ConfigError(_ONE_PARAMS)
    return cfg


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit_error(exc: BaseException):
    sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                 "message": str(exc)}) + "\n")


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    try:
        cfg = _run_config(args)
    except (OSError, ValueError) as exc:
        _emit_error(exc)
        return 1
    try:
        profile = solver.continuation_solve(cfg["params"], cfg["degrees"],
                                            cfg["grid"], cfg["options"])
    except (solver.NoConvergence, solver.SingularJacobian) as exc:
        _emit_error(exc)
        return 2
    out = args.out or "profile.json"
    with open(out, "w") as fh:
        fh.write(solver.profile_to_json(profile))
    q = diagnostics.quantization_check(profile)
    summary = {
        "out": out,
        "converged": True,
        "residual_norm": profile.report.final_residual,
        "iterations": list(profile.report.iterations),
        "wall_time": profile.report.wall_time,
        "quantization": {"lhs": q.lhs, "rhs": q.rhs,
                         "relative_gap": q.relative_gap},
        "monotonicity": diagnostics.monotonicity_classify(profile).label.value,
        "bound_margin": diagnostics.amplitude_bound_check(profile),
    }
    print(json.dumps(summary))
    return 0


# ---------------------------------------------------------------------------
# sweep


def _sweep_record(params, degrees, b, result) -> dict:
    """The record of one swept B: result is its profile or its failure."""
    tail = asymptotics.leading_coeffs(dataclasses.replace(params, B=b),
                                      degrees)
    if isinstance(result, solver.Profile):
        try:
            return {"B": b, "converged": True,
                    "class":
                        diagnostics.monotonicity_classify(result).label.value,
                    "a_plus": tail.a_plus, "a_minus": tail.a_minus,
                    "quantization_gap":
                        diagnostics.quantization_check(result).relative_gap,
                    "hessian_min_eig":
                        diagnostics.second_variation_min_eig(result)}
        except diagnostics.EigenFailure as exc:
            result = exc
    return {"B": b, "converged": False, "class": None,
            "a_plus": tail.a_plus, "a_minus": tail.a_minus,
            "quantization_gap": None, "hessian_min_eig": None,
            "error": str(result)}


def cmd_sweep(args) -> int:
    try:
        cfg = _run_config(args)
        if "sweep" not in cfg:
            raise ConfigError("sweep command needs a sweep section")
    except (OSError, ValueError) as exc:
        _emit_error(exc)
        return 1
    results = solver.continuation_sweep(cfg["params"], cfg["degrees"],
                                        cfg["sweep"], cfg["grid"],
                                        cfg["options"])
    ordered = [_sweep_record(cfg["params"], cfg["degrees"], b, result)
               for b, result in zip(cfg["sweep"], results)]
    nondecr = [r["B"] for r in ordered
               if r["converged"] and r["class"] == "BothNondecreasing"]
    result = {"records": ordered,
              "empirical_B0": max(nondecr) if nondecr else None}
    text = json.dumps(result)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        csv_path = args.out.rsplit(".", 1)[0] + ".csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            numbers = ("a_plus", "a_minus", "quantization_gap",
                       "hessian_min_eig")
            writer.writerow(["B", "converged", "class", *numbers])
            for rec in ordered:
                writer.writerow(
                    [_fmt(rec["B"]), rec["converged"], rec["class"] or ""]
                    + ["" if rec[k] is None else _fmt(rec[k])
                       for k in numbers])
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_checks(profile: solver.Profile, vcfg: dict, fit_window=None):
    checks = []

    def check(name, value, target, tolerance, passed):
        # strict JSON has no NaN or infinity: such a value is printed as its
        # string ("nan", "inf", "-inf") and fails the check
        if isinstance(value, float) and not math.isfinite(value):
            value, passed = str(value), False
        checks.append({"check": name, "value": value, "target": target,
                       "tolerance": tolerance, "pass": bool(passed)})

    # never gated on the file's own report.tolerance, which it could loosen
    resnorm = solver.residual_norm(profile)
    check("residual_norm", resnorm, 0.0, vcfg["residual_tol"],
          resnorm <= vcfg["residual_tol"])

    low = min(float(np.min(profile.f_plus)), float(np.min(profile.f_minus)))
    check("positivity_min", low, 0.0, 1e-9, low >= -1e-9)

    margin = diagnostics.amplitude_bound_check(profile)
    check("amplitude_bound_margin", margin, 0.0, vcfg["bound_tol"],
          margin >= -vcfg["bound_tol"])

    q = diagnostics.quantization_check(profile)
    check("quantization_gap", q.relative_gap, 0.0, vcfg["quantization_tol"],
          q.relative_gap <= vcfg["quantization_tol"])

    poh = diagnostics.pohozaev_residual(profile)
    poh_rel = abs(poh) / max(q.rhs, 1.0)
    check("pohozaev_at_R_max", poh_rel, 0.0, vcfg["pohozaev_tol"],
          poh_rel <= vcfg["pohozaev_tol"])

    orders = diagnostics.near_origin_order(profile)
    for comp, got, n in (("plus", orders[0], profile.degrees.n_plus),
                         ("minus", orders[1], profile.degrees.n_minus)):
        dev = abs(got - n)
        check(f"near_origin_order_{comp}", got, float(n),
              vcfg["origin_order_tol"], dev <= vcfg["origin_order_tol"])

    try:
        eig = diagnostics.second_variation_min_eig(profile)
        check("hessian_min_eig", eig, 0.0, vcfg["hessian_tol"],
              eig >= -vcfg["hessian_tol"])
    except diagnostics.EigenFailure as exc:
        check("hessian_min_eig", str(exc), None, None, False)

    tail = asymptotics.second_coeffs(profile.params, profile.degrees)
    try:
        fit = asymptotics.tail_fit(profile, fit_window)
        for comp, got, want, rel, floor in (
                ("a_plus", fit.a_plus, tail.a_plus, vcfg["tail_a_rel"],
                 1e-4 * profile.params.t_plus),
                ("a_minus", fit.a_minus, tail.a_minus, vcfg["tail_a_rel"],
                 1e-4 * profile.params.t_minus),
                ("b_plus", fit.b_plus, tail.b_plus, vcfg["tail_b_rel"],
                 1e-2 * profile.params.t_plus),
                ("b_minus", fit.b_minus, tail.b_minus, vcfg["tail_b_rel"],
                 1e-2 * profile.params.t_minus)):
            tol = max(rel * abs(want), floor)
            check(f"tail_{comp}", got, want, tol, abs(got - want) <= tol)
    except asymptotics.IllConditionedFit as exc:
        check("tail_fit", str(exc), None, None, False)

    try:
        spec = asymptotics.select_envelope(profile.params, profile.degrees)
        env = asymptotics.envelope_check(profile, spec)
        check("envelope_sandwich", env.worst_margin, 0.0, 0.0, env.passed)
    except (asymptotics.SelectionFailed, ValueError) as exc:
        # no certified radius, or the grid is too short to host one
        check("envelope_sandwich", str(exc), None, None, False)
    return checks


def cmd_verify(args) -> int:
    cfg = {"verify": _DEFAULT_VERIFY, "fit_window": None}
    try:
        if args.config:
            cfg = load_config(args.config)
        with open(args.profile) as fh:
            profile = solver.profile_from_json(fh.read())
    except (OSError, ValueError, KeyError) as exc:
        _emit_error(exc)
        return 1
    checks = _verify_checks(profile, cfg["verify"], cfg["fit_window"])
    for c in checks:
        print(json.dumps(c))
    return 0 if all(c["pass"] for c in checks) else 3


# ---------------------------------------------------------------------------
# asymptotics report


def cmd_asymptotics(args) -> int:
    try:
        cfg = _run_config(args)
    except (OSError, ValueError) as exc:
        _emit_error(exc)
        return 1
    params, degrees = cfg["params"], cfg["degrees"]
    tail = asymptotics.second_coeffs(params, degrees)
    out = {"a_plus": tail.a_plus, "a_minus": tail.a_minus,
           "b_plus": tail.b_plus, "b_minus": tail.b_minus}
    try:
        spec = asymptotics.select_envelope(params, degrees)
        out["delta"] = spec.delta
        out["R"] = spec.R
        out["M_coefficients"] = {
            branch: {"plus": plus.as_strings(), "minus": minus.as_strings()}
            for branch, (plus, minus) in spec.series}
    except asymptotics.SelectionFailed as exc:
        out.update(delta=None, R=None, M_coefficients=None,
                   selection_error=str(exc))
    print(json.dumps(out))
    return 0


# ---------------------------------------------------------------------------
# export


def _export_rows(profile: solver.Profile, what: str):
    r = profile.grid.nodes
    if what == "profiles":
        return ["r", "f_plus", "f_minus"], [r, profile.f_plus, profile.f_minus]
    if what == "slopes":
        return ["r", "df_plus", "df_minus"], [
            r, np.gradient(profile.f_plus, r, edge_order=2),
            np.gradient(profile.f_minus, r, edge_order=2)]
    if what == "tail":
        tail = asymptotics.leading_coeffs(profile.params, profile.degrees)
        mask = r > 0
        rr = r[mask]
        header = ["r", "tail2_plus", "tail2_minus",
                  "resid4_plus", "resid4_minus"]
        yp = profile.f_plus[mask] - profile.params.t_plus
        ym = profile.f_minus[mask] - profile.params.t_minus
        cols = [rr, yp * rr ** 2, ym * rr ** 2,
                (yp - tail.a_plus / rr ** 2) * rr ** 4,
                (ym - tail.a_minus / rr ** 2) * rr ** 4]
        return header, cols
    if what == "envelope":
        spec = asymptotics.select_envelope(profile.params, profile.degrees)
        mask = r >= spec.R
        rr = r[mask]
        header = ["r", "w_lower_plus", "f_plus", "w_upper_plus",
                  "w_lower_minus", "f_minus", "w_upper_minus"]
        bounds = asymptotics.envelope_bounds(spec, profile.params,
                                             profile.degrees, rr)
        cols = [rr, bounds["plus"][0], profile.f_plus[mask], bounds["plus"][1],
                bounds["minus"][0], profile.f_minus[mask], bounds["minus"][1]]
        return header, cols
    raise ConfigError(f"unknown export kind {what!r}")


def cmd_export(args) -> int:
    try:
        with open(args.profile) as fh:
            profile = solver.profile_from_json(fh.read())
        header, cols = _export_rows(profile, args.what)
        out = args.out or f"{args.what}.csv"
        with open(out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in zip(*cols):
                writer.writerow([_fmt(v) for v in row])
    except (OSError, ValueError, KeyError,
            asymptotics.SelectionFailed) as exc:
        _emit_error(exc)
        return 1
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glvortex",
        description="Solve and verify symmetric two-component vortex profiles")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required)
        p.add_argument("--out")
        p.add_argument("--grid-n", dest="grid_n", type=int)
        p.add_argument("--r-max", dest="r_max", type=float)
        p.add_argument("--tol", type=float)
        p.add_argument("--far-field", dest="far_field",
                       choices=["dirichlet", "robin"])

    p = sub.add_parser("solve", help="solve one configuration")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="continuation sweep over B")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the check suite on a profile")
    p.add_argument("profile")
    common(p, config_required=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("asymptotics", help="tail coefficients and envelope")
    common(p)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("export", help="CSV plot data from a profile")
    p.add_argument("profile")
    p.add_argument("what", choices=["profiles", "slopes", "tail", "envelope"])
    common(p, config_required=False)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
