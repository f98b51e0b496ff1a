"""Command-line front end: solves, sweeps, verification, tail reports, CSV export.

Structured results go to stdout as JSON (one object per check for `verify`);
plot data goes to CSV.  Exit codes: 0 success, 1 configuration/parse error,
2 solver non-convergence, 3 verification failure; `main` alone maps
exceptions to them.  Stderr holds JSON lines only: one per distinct warning,
of any category, then at most one error.  Configs are strict JSON: unknown
keys are rejected so typos cannot silently change a scientific run; the one
legacy key, `solve.far_field`, is accepted with its one value "robin".  This
module does I/O only: `solver` solves and steps B, `diagnostics` and
`asymptotics` compute every check, record and column it prints, and `model`
and `grid` parse the JSON sections that profile files share with configs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import warnings
from pathlib import Path

from . import asymptotics, diagnostics, model, solver
from .grid import grid_from_json, legacy_far_field


class ConfigError(ValueError):
    pass


_DEFAULT_GRID = {"R_max": 80.0, "N": 4000, "kind": "uniform", "stretch": None}
# the solve defaults live on solver.SolveOptions alone
_SOLVE_KEYS = {f.name for f in dataclasses.fields(solver.SolveOptions)}
_CONFIG_KEYS = {"version", "params", "bec_params", "degrees", "grid", "solve",
                "sweep", "fit_window", "verify"}
_ONE_PARAMS = "exactly one of params / bec_params must be present"
# each sweep value is one continuation stage (a few ms at N = 4000), so 10^4
# values is minutes of work; the bound is checked before the list is built
_MAX_SWEEP_VALUES = 10_000


def _section(raw: dict, key: str, keys) -> dict:
    """An optional config section: a JSON object with no key outside keys."""
    return model.json_object(raw.get(key, {}), keys, key, exact=False,
                             error=ConfigError)


def _sweep_b_values(sweep: dict) -> list:
    """The B values of a sweep section; continuation_sweep checks each
    against the hypothesis before it solves."""
    keys = ("b_start", "b_stop", "b_step")
    model.json_object(sweep, keys, "sweep", error=ConfigError)
    if not all(model.is_number(sweep[k]) for k in keys):
        raise ConfigError("sweep needs finite numbers b_start, b_stop, b_step")
    b_start, b_stop, b_step = (float(sweep[k]) for k in keys)
    if not (b_start <= b_stop and b_step > 0):
        raise ConfigError("sweep needs b_start <= b_stop and b_step > 0")
    steps = (b_stop - b_start) / b_step   # inf when the span overflows
    if not steps <= _MAX_SWEEP_VALUES - 1:
        raise ConfigError(f"sweep holds more than {_MAX_SWEEP_VALUES} values")
    n = int(round(steps))
    vals = [b_start + k * b_step for k in range(n + 1)]
    return [round(v, 12) for v in vals if v <= b_stop + 1e-12]


def load_config(path: str, args=None) -> dict:
    """Read and validate a run configuration, applying flag overrides.

    A config with neither params nor bec_params is a verify config: only
    its verify tolerances and fit window are read.  Params, degrees and
    grid are parsed as profile files parse them; negative windings
    normalize, and the flags override the grid and solve sections.  A
    solve section may still name the far field, as "robin" only.
    """
    with open(path) as fh:
        raw = model.json_object(model.parse_json(fh.read(), ConfigError),
                                _CONFIG_KEYS, "config", exact=False,
                                error=ConfigError)
    if raw.get("version") != 1:
        raise ConfigError(f"unsupported config version {raw.get('version')!r}")
    if "params" in raw and "bec_params" in raw:
        raise ConfigError(_ONE_PARAMS)
    verify = _section(raw, "verify", diagnostics.VERIFY_DEFAULTS)
    bad = [k for k, v in verify.items() if not (model.is_number(v) and v >= 0)]
    if bad:
        raise ConfigError(f"verify values {bad} must be finite numbers >= 0")
    window = raw.get("fit_window")
    if window is not None and not (
            isinstance(window, list) and len(window) == 2
            and all(map(model.is_number, window)) and window[0] < window[1]):
        raise ConfigError("fit_window must be [r_lo, r_hi] with finite "
                          f"r_lo < r_hi, got {window!r}")
    cfg = {"verify": {**diagnostics.VERIFY_DEFAULTS, **verify},
           "fit_window": window}
    if "params" not in raw and "bec_params" not in raw:
        return cfg

    if "params" in raw:
        cfg["params"] = model.coupling_from_json(raw["params"])
    else:
        cfg["params"], _ = model.bec_to_gl(
            model.bec_from_json(raw["bec_params"]))
    cfg["degrees"] = model.normalize_degrees(
        *model.degrees_from_json(raw.get("degrees")))

    gdict = {**_DEFAULT_GRID, **_section(raw, "grid", _DEFAULT_GRID)}
    sdict = dict(_section(raw, "solve", {*_SOLVE_KEYS, "far_field"}))
    legacy_far_field(sdict.pop("far_field", "robin"), ConfigError)
    for flag, section, key in (("grid_n", gdict, "N"),
                               ("r_max", gdict, "R_max"),
                               ("tol", sdict, "tolerance")):
        if getattr(args, flag, None) is not None:
            section[key] = getattr(args, flag)

    cfg["grid"] = grid_from_json(gdict)
    cfg["options"] = solver.SolveOptions(**sdict)
    if "sweep" in raw:
        cfg["sweep"] = _sweep_b_values(raw["sweep"])
    return cfg


def _run_config(args) -> dict:
    """The config of a command that solves: params are required."""
    cfg = load_config(args.config, args)
    if "params" not in cfg:
        raise ConfigError(_ONE_PARAMS)
    return cfg


def _write_csv(path, header, rows) -> None:
    """Header, then rows: floats at round-trip precision, None as empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [format(float(v), ".17g") if isinstance(v, float)
             else "" if v is None else v for v in row] for row in rows)


def _error(exc: BaseException) -> str:
    """exc as one JSON line for stderr."""
    return json.dumps({"error": type(exc).__name__,
                       "message": str(exc)}) + "\n"


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    cfg = _run_config(args)
    profile = solver.continuation_solve(cfg["params"], cfg["degrees"],
                                        cfg["grid"], cfg["options"])
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
        "monotonicity": diagnostics.monotonicity_classify(profile).value,
        "bound_margin": diagnostics.amplitude_bound_check(profile),
    }
    print(json.dumps(summary))
    return 0


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    cfg = _run_config(args)
    if "sweep" not in cfg:
        raise ConfigError("sweep command needs a sweep section")
    if args.out and Path(args.out).suffix.lower() == ".csv":
        raise ConfigError("--out must name the JSON file, not the CSV")
    results = solver.continuation_sweep(cfg["params"], cfg["degrees"],
                                        cfg["sweep"], cfg["grid"],
                                        cfg["options"])
    report = diagnostics.sweep_report(cfg["params"], cfg["degrees"],
                                      cfg["sweep"], results)
    text = json.dumps(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        header = ["B", "converged", "class", "a_plus", "a_minus",
                  "quantization_gap", "hessian_min_eig"]
        _write_csv(Path(args.out).with_suffix(".csv"), header,
                   ([rec[k] for k in header] for rec in report["records"]))
    print(text)
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    tolerances, window = diagnostics.VERIFY_DEFAULTS, None
    if args.config:
        cfg = load_config(args.config)
        tolerances, window = cfg["verify"], cfg["fit_window"]
    with open(args.profile) as fh:
        profile = solver.profile_from_json(fh.read())
    checks = diagnostics.verify(profile, tolerances, window)
    for c in checks:
        print(json.dumps(c))
    return 0 if all(c["pass"] for c in checks) else 3


# ---------------------------------------------------------------------------
# asymptotics report


def cmd_asymptotics(args) -> int:
    cfg = _run_config(args)
    params, degrees = cfg["params"], cfg["degrees"]
    try:    # the closed-form tail comes with the certified envelope
        spec = asymptotics.select_envelope(params, degrees)
        tail, envelope = spec.tail, {
            "delta": spec.delta, "R": spec.R, "M_coefficients": {
                branch: {comp: {f"M_{2 * k}": str(m)
                                for k, m in enumerate(series, 1)}
                         for comp, series in zip(("plus", "minus"), pair)}
                for branch, pair in spec.series}}
    except asymptotics.SelectionFailed as exc:
        tail = asymptotics.second_coeffs(params, degrees)
        envelope = {"delta": None, "R": None, "M_coefficients": None,
                    "selection_error": str(exc)}
    print(json.dumps({**dataclasses.asdict(tail), **envelope}))
    return 0


# ---------------------------------------------------------------------------
# export


def cmd_export(args) -> int:
    with open(args.profile) as fh:
        profile = solver.profile_from_json(fh.read())
    header, cols = diagnostics.plot_columns(profile, args.what)
    _write_csv(args.out or f"{args.what}.csv", header, zip(*cols))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glvortex",
        description="Solve and verify symmetric two-component vortex profiles")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, func in (
            ("solve", "solve one configuration", cmd_solve),
            ("sweep", "continuation sweep over B", cmd_sweep)):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out")
        # overrides of the config's grid and solve sections
        p.add_argument("--grid-n", dest="grid_n", type=int)
        p.add_argument("--r-max", dest="r_max", type=float)
        p.add_argument("--tol", type=float)
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="run the check suite on a profile")
    p.add_argument("profile")
    p.add_argument("--config")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("asymptotics", help="tail coefficients and envelope")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_asymptotics)

    p = sub.add_parser("export", help="CSV plot data from a profile")
    p.add_argument("profile")
    p.add_argument("what", choices=["profiles", "slopes", "tail", "envelope"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    """Run one command: the exit-code table, and stderr's JSON lines (each
    distinct warning, then the error)."""
    args = build_parser().parse_args(argv)
    # the lines, not the exception: its traceback would pin the command's
    # frames, and through them its grid and arrays, until a gc pass
    notes, error = {}, ""           # notes: the distinct warning lines
    with warnings.catch_warnings():
        # note sees what the filters raise (-W error), not what they ignore
        warnings.filters[:] = [("always", *f[1:]) if f[0] == "error" else f
                               for f in warnings.filters]

        def note(message, category, *_, **__):
            notes[json.dumps({"warning": category.__name__,
                              "message": str(message)}) + "\n"] = None
        warnings.showwarning = note
        try:
            code = args.func(args)
        except (solver.NoConvergence, solver.SingularJacobian) as exc:
            code, error = 2, _error(exc)
        except (OSError, ValueError, asymptotics.SelectionFailed) as exc:
            code, error = 1, _error(exc)
    sys.stderr.write("".join(notes) + error)
    return code


if __name__ == "__main__":
    sys.exit(main())
