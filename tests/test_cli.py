import csv
import hashlib
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import glvortex as gv
from glvortex import cli, solver
from glvortex.cli import ConfigError, build_parser, load_config, main
from conftest import CASES, run_cli as run


def write_config(path, **overrides):
    cfg = {
        "version": 1,
        "params": {"A_plus": 1.0, "A_minus": 1.0, "B": 0.5,
                   "t_plus": 1.0, "t_minus": 1.0},
        "degrees": {"n_plus": 1, "n_minus": 1},
        "grid": {"R_max": 40.0, "N": 1000},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def test_solve_writes_profile_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "profile.json"
    code, stdout, _ = run(capsys, "solve", "--config", str(cfg),
                          "--out", str(out))
    assert code == 0
    summary = json.loads(stdout)
    assert summary["converged"] is True
    assert summary["residual_norm"] <= 1e-10
    assert summary["quantization"]["rhs"] == pytest.approx(2.0)
    assert summary["monotonicity"] == "BothNondecreasing"
    prof = gv.profile_from_json(out.read_text())
    assert prof.grid.N == 1000


def test_solve_exit_code_on_no_convergence(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(solver, "_MAX_NEWTON_ITERS", 1)
    cfg = write_config(tmp_path / "cfg.json", solve={"tolerance": 1e-14})
    code, _, stderr = run(capsys, "solve", "--config", str(cfg))
    assert code == 2
    assert json.loads(stderr)["error"] == "NoConvergence"


def test_numpy_warnings_are_json_lines(tmp_path, capsys):
    # an f_plus entry of 1e200 overflows its square in the checks of
    # verify: stderr is JSON lines only, one per distinct warning, even when
    # the caller's filters turn warnings into errors (python -W error), and
    # verify still prints every check and fails
    cfg = write_config(tmp_path / "cfg.json", grid={"R_max": 20.0, "N": 200})
    profile = tmp_path / "p.json"
    assert run(capsys, "solve", "--config", str(cfg),
               "--out", str(profile))[0] == 0
    obj = json.loads(profile.read_text())
    obj["f_plus"][100] = 1e200
    profile.write_text(json.dumps(obj))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run(capsys, "verify", str(profile),
                                   warns=True)
    assert code == 3
    checks = [json.loads(line) for line in stdout.splitlines()]
    assert checks and not all(c["pass"] for c in checks)
    lines = stderr.splitlines()
    warned = list(map(json.loads, lines))
    assert warned and {w["warning"] for w in warned} == {"RuntimeWarning"}
    assert any("overflow" in w["message"] for w in warned)
    assert len(set(lines)) == len(lines)


def test_coefficients_whose_squares_overflow_are_refused(tmp_path, capsys):
    # at t_+ = 1e155, t_+^2 leaves the float range: the config is refused
    # with one error line, before any solve could warn
    cfg = write_config(tmp_path / "cfg.json",
                       params={"A_plus": 1.0, "A_minus": 1.0, "B": 0.5,
                               "t_plus": 1e155, "t_minus": 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run(capsys, "solve", "--config", str(cfg),
                                   "--out", str(tmp_path / "p.json"))
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {"error": "HypothesisViolation",
                                  "message": "t_plus^2 is not a finite float"}


def test_warning_filters_keep_the_callers_ignores(monkeypatch, capsys):
    # main reports what the caller's filters would raise and leaves what
    # they ignore unreported, as python's default filters do
    def command(args):
        warnings.warn("deprecated", DeprecationWarning)
        warnings.warn("overflow", RuntimeWarning)
        return 0
    monkeypatch.setattr(cli, "cmd_asymptotics", command)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        warnings.simplefilter("error", RuntimeWarning)
        code, stdout, stderr = run(capsys, "asymptotics", "--config", "c.json",
                                   warns=True)
    assert (code, stdout) == (0, "")
    assert list(map(json.loads, stderr.splitlines())) == [
        {"warning": "RuntimeWarning", "message": "overflow"}]


def test_negative_winding_conjugates_its_component(tmp_path, capsys):
    # conjugating a component leaves its radial profile unchanged, so a
    # config with n = (-1, 1) writes the (1, 1) profile
    profiles = []
    for name, n_plus in (("neg", -1), ("pos", 1)):
        cfg = write_config(tmp_path / f"{name}.json",
                           degrees={"n_plus": n_plus, "n_minus": 1})
        out = tmp_path / f"{name}_profile.json"
        code, _, stderr = run(capsys, "solve", "--config", str(cfg),
                              "--out", str(out))
        assert (code, stderr) == (0, "")
        assert json.loads(out.read_text())["degrees"] == {"n_plus": 1,
                                                          "n_minus": 1}
        profiles.append(gv.profile_from_json(out.read_text()))
    neg, pos = profiles
    assert np.array_equal(neg.f[0], pos.f[0])
    assert np.array_equal(neg.f[1], pos.f[1])


def test_solve_rejects_bad_hypothesis(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       params={"A_plus": 1.0, "A_minus": 1.0, "B": 1.0,
                               "t_plus": 1.0, "t_minus": 1.0})
    code, _, stderr = run(capsys, "solve", "--config", str(cfg))
    assert code == 1
    err = json.loads(stderr)
    assert err["error"] == "HypothesisViolation"


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_grid_too_large_to_allocate_is_one_error_line(tmp_path, capsys,
                                                      command):
    # 10^18 nodes ask for 6.94 EiB, beyond any 57-bit address space, so
    # the node array fails at once without allocating: exit 1 and one JSON
    # line, not a traceback
    cfg = write_config(tmp_path / "cfg.json",
                       sweep={"b_start": 0.0, "b_stop": 0.5, "b_step": 0.5})
    code, stdout, stderr = run(capsys, command, "--config", str(cfg),
                               "--grid-n", str(10 ** 18),
                               "--out", str(tmp_path / "out.json"))
    assert (code, stdout) == (1, "")
    error = json.loads(stderr)
    assert error["error"].endswith("MemoryError")
    assert "Unable to allocate 6.94 EiB" in error["message"]


def test_solve_zero_degrees_constant_profile(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       degrees={"n_plus": 0, "n_minus": 0})
    out = tmp_path / "p.json"
    code, stdout, _ = run(capsys, "solve", "--config", str(cfg),
                          "--out", str(out))
    assert code == 0
    prof = gv.profile_from_json(out.read_text())
    assert np.allclose(prof.f[0], 1.0, atol=1e-12)
    assert np.allclose(prof.f[1], 1.0, atol=1e-12)


def test_solve_flag_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "p.json"
    code, _, _ = run(capsys, "solve", "--config", str(cfg), "--out", str(out),
                     "--grid-n", "600", "--r-max", "30.0", "--tol", "1e-9")
    assert code == 0
    prof = gv.profile_from_json(out.read_text())
    assert prof.grid.N == 600
    assert prof.grid.R_max == 30.0
    assert prof.report.tolerance == 1e-9


def test_config_strictness(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    raw = json.loads(cfg.read_text())
    raw["typo_field"] = 1
    cfg.write_text(json.dumps(raw))
    code, _, stderr = run(capsys, "solve", "--config", str(cfg))
    assert code == 1
    assert "typo_field" in json.loads(stderr)["message"]

    raw = json.loads(write_config(tmp_path / "c2.json").read_text())
    raw["version"] = 2
    (tmp_path / "c2.json").write_text(json.dumps(raw))
    code, _, stderr = run(capsys, "solve", "--config", str(tmp_path / "c2.json"))
    assert code == 1

    raw = json.loads(write_config(tmp_path / "c3.json").read_text())
    raw["bec_params"] = {"m1": 1, "m2": 1, "g1": 1, "g2": 1, "g12": 0,
                         "mu1": 1, "mu2": 1, "hbar": 1}
    (tmp_path / "c3.json").write_text(json.dumps(raw))
    code, _, stderr = run(capsys, "solve", "--config", str(tmp_path / "c3.json"))
    assert code == 1
    assert "exactly one" in json.loads(stderr)["message"]


def test_config_sections_must_be_objects(tmp_path, capsys):
    for section in ({"grid": 5}, {"solve": ["tolerance"]}, {"degrees": None},
                    {"verify": 1e-10}):
        cfg = write_config(tmp_path / "cfg.json", **section)
        code, _, stderr = run(capsys, "solve", "--config", str(cfg))
        assert code == 1
        assert "must be a JSON object" in json.loads(stderr)["message"]
    (tmp_path / "list.json").write_text("[1]")
    code, _, stderr = run(capsys, "solve", "--config",
                          str(tmp_path / "list.json"))
    assert code == 1
    assert json.loads(stderr)["error"] == "ConfigError"


@pytest.mark.parametrize("section", [
    {"degrees": {"n_plus": 1.5, "n_minus": 1}},
    {"degrees": {"n_plus": True, "n_minus": 1}},
    {"grid": {"R_max": 40.0, "N": "200"}},
])
def test_config_windings_and_n_must_be_integers(tmp_path, capsys, section):
    cfg = write_config(tmp_path / "cfg.json", **section)
    out = tmp_path / "p.json"
    code, stdout, stderr = run(capsys, "solve", "--config", str(cfg),
                               "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert not out.exists()
    (line,) = stderr.splitlines()
    assert json.loads(line)["error"] == "ValueError"


BEC_KEYS = ["m1", "m2", "g1", "g2", "g12", "mu1", "mu2", "hbar"]


@pytest.mark.parametrize("command", ["solve", "asymptotics"])
@pytest.mark.parametrize("bec", [
    BEC_KEYS,
    {**dict.fromkeys(BEC_KEYS, 1.0), "g12": 0.0, "m1": "1", "hbar": True},
])
def test_bec_params_must_be_an_object_of_numbers(tmp_path, capsys, command,
                                                  bec):
    raw = json.loads(write_config(tmp_path / "cfg.json").read_text())
    del raw["params"]
    raw["bec_params"] = bec
    cfg = tmp_path / "bec.json"
    cfg.write_text(json.dumps(raw))
    code, stdout, stderr = run(capsys, command, "--config", str(cfg))
    assert code == 1
    assert stdout == ""
    (line,) = stderr.splitlines()
    assert json.loads(line)["error"] == "ValueError"


def test_bec_config_variant(tmp_path, capsys):
    cfg = {
        "version": 1,
        "bec_params": {"m1": 1.0, "m2": 1.0, "g1": 1.0, "g2": 1.0,
                       "g12": 0.0, "mu1": 1.0, "mu2": 1.0, "hbar": 1.0},
        "degrees": {"n_plus": 1, "n_minus": 0},
        "grid": {"R_max": 30.0, "N": 600},
    }
    path = tmp_path / "bec.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "p.json"
    code, stdout, _ = run(capsys, "solve", "--config", str(path),
                          "--out", str(out))
    assert code == 0
    prof = gv.profile_from_json(out.read_text())
    assert prof.params == gv.CouplingParams(1, 1, 0, 1, 1)


def test_verify_accepts_good_profile(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       grid={"R_max": 60.0, "N": 1800})
    out = tmp_path / "p.json"
    code, _, _ = run(capsys, "solve", "--config", str(cfg), "--out", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", str(out), "--config", str(cfg))
    checks = [json.loads(line) for line in stdout.strip().splitlines()]
    failed = [c for c in checks if not c["pass"]]
    assert code == 0, failed
    names = {c["check"] for c in checks}
    assert {"residual_norm", "quantization_gap", "amplitude_bound_margin",
            "hessian_min_eig", "envelope_sandwich",
            "near_origin_order_plus"} <= names


def test_verify_values_reproduce_solve_summary(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "p.json"
    _, stdout, _ = run(capsys, "solve", "--config", str(cfg), "--out", str(out))
    summary = json.loads(stdout)
    code, vout, _ = run(capsys, "verify", str(out))
    checks = {c["check"]: c for c in map(json.loads, vout.strip().splitlines())}
    # the verify pass recomputes from the stored arrays without re-solving,
    # so the quantization gap agrees exactly with the solve-time summary
    assert abs(checks["quantization_gap"]["value"]
               - summary["quantization"]["relative_gap"]) <= 1e-15
    # a second verify run is byte-identical
    _, vout2, _ = run(capsys, "verify", str(out))
    assert vout2 == vout


def test_verify_flags_corrupted_profile(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "p.json"
    run(capsys, "solve", "--config", str(cfg), "--out", str(out))
    obj = json.loads(out.read_text())
    obj["f_plus"][500] = 0.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, stdout, _ = run(capsys, "verify", str(bad))
    assert code == 3
    checks = {c["check"]: c for c in map(json.loads,
                                         stdout.strip().splitlines())}
    assert not checks["residual_norm"]["pass"]


def test_verify_reports_non_finite_node_as_failed_checks(tmp_path, capsys):
    # a NaN node makes the Hessian unusable; verify records that as a failed
    # check instead of crashing before it prints anything
    cfg = write_config(tmp_path / "cfg.json", grid={"R_max": 40.0, "N": 400})
    out = tmp_path / "p.json"
    run(capsys, "solve", "--config", str(cfg), "--out", str(out))
    obj = json.loads(out.read_text())
    obj["f_plus"][100] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(obj))
    code, stdout, stderr = run(capsys, "verify", str(bad))
    assert code == 3
    assert stderr == ""

    def no_constants(token):
        raise ValueError(f"non-standard JSON constant {token}")

    # every line is strict JSON: a non-finite value is printed as a string
    checks = {c["check"]: c
              for c in (json.loads(line, parse_constant=no_constants)
                        for line in stdout.strip().splitlines())}
    assert checks["residual_norm"]["value"] == "nan"
    assert checks["residual_norm"]["pass"] is False
    assert checks["hessian_min_eig"]["pass"] is False
    assert "non-finite" in checks["hessian_min_eig"]["value"]
    assert "envelope_sandwich" in checks  # the checks after it still ran


def test_verify_ignores_self_reported_tolerance(tmp_path, capsys):
    # a corrupted file cannot pass by loosening its own report.tolerance
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "p.json"
    run(capsys, "solve", "--config", str(cfg), "--out", str(out))
    obj = json.loads(out.read_text())
    for i in range(100, 140):
        obj["f_plus"][i] += 5e-5
    obj["report"]["tolerance"] = 1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    code, stdout, _ = run(capsys, "verify", str(bad))
    checks = {c["check"]: c for c in map(json.loads,
                                         stdout.strip().splitlines())}
    assert code == 3
    assert [name for name, c in checks.items() if not c["pass"]] == [
        "residual_norm"]
    assert checks["residual_norm"]["tolerance"] == 1e-10
    # only the verifier's own config may loosen the gate
    loose = write_config(tmp_path / "loose.json", verify={"residual_tol": 1.0})
    code, _, _ = run(capsys, "verify", str(bad), "--config", str(loose))
    assert code == 0


def test_verify_flags_truncated_tail(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       params={"A_plus": 1.0, "A_minus": 1.0, "B": 0.0,
                               "t_plus": 1.0, "t_minus": 1.0},
                       degrees={"n_plus": 2, "n_minus": 0},
                       grid={"R_max": 10.0, "N": 400})
    out = tmp_path / "p.json"
    code, _, _ = run(capsys, "solve", "--config", str(cfg), "--out", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 3
    checks = {c["check"]: c for c in map(json.loads,
                                         stdout.strip().splitlines())}
    assert not checks["quantization_gap"]["pass"]
    assert checks["quantization_gap"]["value"] > 0.01


def test_verify_parse_error(tmp_path, capsys):
    bad = tmp_path / "nonsense.json"
    bad.write_text("{not json")
    code, _, stderr = run(capsys, "verify", str(bad))
    assert code == 1
    assert json.loads(stderr)["error"]


@pytest.fixture(scope="module")
def profile_text():
    prof = gv.continuation_solve(gv.CouplingParams(1, 1, 0.5, 1, 1),
                                 gv.DegreePair(1, 1), gv.build_grid(20.0, 200))
    return gv.profile_to_json(prof)


# each edit turns a valid profile file into a malformed one
MALFORMED = {
    "params_list": lambda o: o.update(params=list(o["params"].values())),
    "grid_n_string": lambda o: o["grid"].update(N="200"),
    "report_null": lambda o: o.update(report=None),
    "far_field_neumann": lambda o: o.update(far_field="neumann"),
    "far_field_dirichlet": lambda o: o.update(far_field="dirichlet"),
    "fractional_winding": lambda o: o["degrees"].update(n_plus=1.5),
    "f_plus_object": lambda o: o.update(f_plus={}),
    "f_plus_list_of_object": lambda o: o.update(f_plus=[{}]),
    "f_plus_missing": lambda o: o.pop("f_plus"),
    "f_minus_missing": lambda o: o.pop("f_minus"),
    # a ragged pair, which numpy would refuse as an inhomogeneous shape
    "f_minus_short": lambda o: o["f_minus"].pop(),
    # numpy would read null as NaN; a NaN token itself loads and fails verify
    "f_plus_null_entry": lambda o: o["f_plus"].__setitem__(1, None),
    # numpy would read "0.5" as 0.5 and true as 1.0
    "f_plus_string_entry": lambda o: o["f_plus"].__setitem__(1, "0.5"),
    "f_plus_bool_entry": lambda o: o["f_plus"].__setitem__(1, True),
    # an OverflowError to numpy
    "f_plus_huge_int_entry": lambda o: o["f_plus"].__setitem__(1, 10 ** 400),
    # integers beyond the float range, and a winding whose square is one
    "param_huge_int": lambda o: o["params"].update(A_plus=10 ** 400),
    "r_max_huge_int": lambda o: o["grid"].update(R_max=10 ** 400),
    "winding_huge_square": lambda o: o["degrees"].update(n_plus=10 ** 160),
}


@pytest.mark.parametrize("command", ["verify", "export"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_profile_is_a_json_error(tmp_path, capsys, profile_text,
                                           case, command):
    obj = json.loads(profile_text)
    MALFORMED[case](obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    extra = ["profiles", "--out", str(tmp_path / "out.csv")]
    code, stdout, stderr = run(capsys, command, str(bad),
                               *(extra if command == "export" else []))
    assert code == 1
    assert stdout == ""
    (line,) = stderr.splitlines()
    assert json.loads(line)["error"] == "ValueError"


@pytest.mark.parametrize("command", ["solve", "asymptotics", "sweep"])
@pytest.mark.parametrize("section", [
    {"params": {"A_plus": 10 ** 400, "A_minus": 1.0, "B": 0.5,
                "t_plus": 1.0, "t_minus": 1.0}},
    {"degrees": {"n_plus": 10 ** 160, "n_minus": 1}},
    {"grid": {"R_max": 10 ** 400, "N": 200}},
    {"sweep": {"b_start": 0.0, "b_stop": 10 ** 400, "b_step": 0.1}},
    {"verify": {"bound_tol": 10 ** 400}},
], ids=["A_plus", "winding", "R_max", "b_stop", "bound_tol"])
def test_huge_integer_in_config_is_a_json_error(tmp_path, capsys, command,
                                                section):
    # an integer beyond the float range is no finite number, and a winding
    # whose square is one would overflow the solver's n^2
    sweep = {"b_start": 0.0, "b_stop": 0.1, "b_step": 0.1}
    cfg = write_config(tmp_path / "cfg.json", **{"sweep": sweep, **section})
    code, stdout, stderr = run(capsys, command, "--config", str(cfg),
                               *(["--out", str(tmp_path / "out.json")]
                                 if command != "asymptotics" else []))
    assert (code, stdout) == (1, "")
    (line,) = stderr.splitlines()
    assert json.loads(line)["error"] in ("ValueError", "ConfigError")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("argv, error", [
    (["verify", "{deep}"], "ValueError"),
    (["export", "{deep}", "profiles", "--out", "{out}"], "ValueError"),
    (["solve", "--config", "{deep}", "--out", "{out}"], "ConfigError"),
    (["verify", "{profile}", "--config", "{deep}"], "ConfigError")],
    ids=["verify", "export", "solve_config", "verify_config"])
def test_deeply_nested_json_is_a_json_error(tmp_path, capsys, profile_text,
                                            argv, error):
    # nesting beyond the JSON parser's recursion limit is a malformed file,
    # not a RecursionError traceback
    deep, profile = tmp_path / "deep.json", tmp_path / "profile.json"
    deep.write_text("[" * 200_000)
    profile.write_text(profile_text)
    paths = {"deep": deep, "profile": profile, "out": tmp_path / "out"}
    code, stdout, stderr = run(capsys, *(a.format(**paths) for a in argv))
    assert (code, stdout) == (1, "")
    (line,) = stderr.splitlines()
    assert json.loads(line)["error"] == error
    assert not paths["out"].exists()


def test_profile_with_legacy_far_field_key_verifies_alike(tmp_path, capsys,
                                                          profile_text):
    # files from earlier writers carry "far_field": "robin"; such a file
    # loads and verifies line for line as one without the key
    assert "far_field" not in json.loads(profile_text)
    plain, legacy = tmp_path / "plain.json", tmp_path / "legacy.json"
    plain.write_text(profile_text)
    legacy.write_text(json.dumps({**json.loads(profile_text),
                                  "far_field": "robin"}))
    code, stdout, stderr = run(capsys, "verify", str(legacy))
    assert stdout and stderr == ""
    assert (code, stdout, stderr) == run(capsys, "verify", str(plain))


def test_slope_row_profile_loads_and_fails_its_residual(capsys):
    # a file solved with the earlier far row, the slope f'(R) = -2a/R^3 of
    # the closed-form tail (bpos, R_max = 20, N = 200), still loads; it
    # does not solve the tail row R f'(R) + 2 (f(R) - t) = 0, so verify
    # fails its residual_norm (7.1e-6 against 1e-10), as for any file
    # whose arrays do not solve the rows
    path = Path(__file__).parent / "data" / "slope_row_bpos_n200.json"
    prof = gv.profile_from_json(path.read_text())
    assert prof.report.final_residual <= 1e-10
    code, stdout, _ = run(capsys, "verify", str(path))
    checks = {c["check"]: c for c in map(json.loads, stdout.splitlines())}
    assert code == 3
    assert checks["residual_norm"]["pass"] is False
    assert checks["residual_norm"]["value"] > 1e-6


def test_config_far_field_must_be_robin(tmp_path, capsys):
    # the benchmark's configs name the one far row and solve as configs
    # without the key; any other far row is one JSON ConfigError line
    grid = {"R_max": 20.0, "N": 200}
    profiles = []
    for name, solve in (("plain", {}), ("robin", {"far_field": "robin"})):
        cfg = write_config(tmp_path / f"{name}.json", grid=grid, solve=solve)
        out = tmp_path / f"{name}_profile.json"
        code, _, stderr = run(capsys, "solve", "--config", str(cfg),
                              "--out", str(out))
        assert (code, stderr) == (0, "")
        profiles.append(gv.profile_from_json(out.read_text()))
    assert np.array_equal(profiles[0].f[0], profiles[1].f[0])
    assert np.array_equal(profiles[0].f[1], profiles[1].f[1])
    cfg = write_config(tmp_path / "dirichlet.json", grid=grid,
                       solve={"far_field": "dirichlet"})
    out = tmp_path / "dirichlet_profile.json"
    code, stdout, stderr = run(capsys, "solve", "--config", str(cfg),
                               "--out", str(out))
    assert (code, stdout) == (1, "")
    assert not out.exists()
    (line,) = stderr.splitlines()
    err = json.loads(line)
    assert err["error"] == "ConfigError"
    assert "'dirichlet'" in err["message"] and "removed" in err["message"]


@pytest.mark.parametrize("N", [4000, 8000])
@pytest.mark.parametrize("command", ["solve", "sweep", "verify", "export"])
def test_degenerate_geometric_grid_is_a_json_error(tmp_path, capsys,
                                                   profile_text, command, N):
    # stretch 1.1 over N cells: q^N overflows at 8000, h0^3 underflows at
    # 4000; configs and hand-written profile files reach the same check
    spec = {"R_max": 80.0, "N": N, "kind": "geometric", "stretch": 1.1}
    if command in ("solve", "sweep"):
        path = write_config(tmp_path / "cfg.json", grid=spec, sweep={
            "b_start": 0.0, "b_stop": 0.5, "b_step": 0.5})
        argv = ["--config", str(path)]
    else:
        obj = json.loads(profile_text)
        obj.update(grid=spec, f_plus=[1.0] * (N + 1), f_minus=[1.0] * (N + 1))
        path = tmp_path / "hand.json"
        path.write_text(json.dumps(obj))
        argv = [str(path)] + (["profiles", "--out", str(tmp_path / "o.csv")]
                              if command == "export" else [])
    code, stdout, stderr = run(capsys, command, *argv)
    assert code == 1
    assert stdout == ""
    (line,) = stderr.splitlines()
    assert json.loads(line)["error"] == "BadGridSpec"


@pytest.mark.parametrize("R_max", [1e103, 1e60, 1e52, 1e-100])
@pytest.mark.parametrize("route", ["config", "flag", "verify"])
def test_grid_beyond_the_float_range_is_a_json_error(tmp_path, capsys,
                                                     profile_text, route,
                                                     R_max):
    # R_max^6, which the tail fit and the envelope bounds take, overflows
    # from R_max ~ 4e51 on; at 1e-100 over 400 uniform cells h0^3
    # underflows: a solve config, the --r-max flag and a profile file all
    # stop at the grid, with one JSON error line and no numpy warning
    spec = {"R_max": R_max, "N": 400, "kind": "uniform", "stretch": None}
    out = ["--out", str(tmp_path / "p.json")]
    if route == "config":
        argv = ["solve", "--config",
                str(write_config(tmp_path / "cfg.json", grid=spec)), *out]
    elif route == "flag":
        argv = ["solve", "--config", str(write_config(tmp_path / "cfg.json")),
                "--grid-n", "400", "--r-max", repr(R_max), *out]
    else:
        obj = json.loads(profile_text)
        obj.update(grid=spec, f_plus=[1.0] * 401, f_minus=[1.0] * 401)
        path = tmp_path / "hand.json"
        path.write_text(json.dumps(obj))
        argv = ["verify", str(path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run(capsys, *argv)
    assert code == 1
    assert stdout == ""
    assert not (tmp_path / "p.json").exists()
    (line,) = stderr.splitlines()
    assert json.loads(line)["error"] == "BadGridSpec"


@pytest.mark.parametrize("solve", [
    {"tolerance": True},
    {"tolerance": "1e-10"},
    {"max_newton_iters": 50},
    {"continuation_steps": 1.5},
    {"damping": 0.5},
    {"continuation_steps": 4},
])
def test_solve_section_values_are_typed(tmp_path, capsys, solve):
    cfg = write_config(tmp_path / "cfg.json", solve=solve,
                       grid={"R_max": 20.0, "N": 200})
    code, stdout, stderr = run(capsys, "solve", "--config", str(cfg),
                               "--out", str(tmp_path / "p.json"))
    assert code == 1
    assert stdout == ""
    (line,) = stderr.splitlines()
    assert json.loads(line)["error"] in ("ValueError", "ConfigError")


@pytest.mark.parametrize("value", ["x", True, -1.0, float("nan")])
def test_verify_section_values_are_typed(tmp_path, capsys, profile_text,
                                         value):
    prof = tmp_path / "p.json"
    prof.write_text(profile_text)
    vcfg = tmp_path / "v.json"
    vcfg.write_text(json.dumps({"version": 1,
                                "verify": {"residual_tol": value}}))
    code, stdout, stderr = run(capsys, "verify", str(prof),
                               "--config", str(vcfg))
    assert code == 1
    assert stdout == ""
    (line,) = stderr.splitlines()
    assert json.loads(line)["error"] == "ConfigError"


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_unwritable_out_is_a_json_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "cfg.json", grid={"R_max": 20.0, "N": 200},
                       sweep={"b_start": 0.0, "b_stop": 0.1, "b_step": 0.1})
    code, stdout, stderr = run(capsys, command, "--config", str(cfg),
                               "--out", str(tmp_path / "no_dir" / "o.json"))
    assert code == 1
    assert stdout == ""
    (line,) = stderr.splitlines()
    assert json.loads(line)["error"] == "FileNotFoundError"


def test_sweep_records_and_empirical_threshold(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       grid={"R_max": 30.0, "N": 600},
                       sweep={"b_start": -0.2, "b_stop": 0.2, "b_step": 0.1})
    out = tmp_path / "sweep.json"
    code, stdout, _ = run(capsys, "sweep", "--config", str(cfg),
                          "--out", str(out))
    assert code == 0
    result = json.loads(stdout)
    bs = [rec["B"] for rec in result["records"]]
    assert bs == sorted(bs)
    assert len(bs) == 5
    assert all(rec["converged"] for rec in result["records"])
    for rec in result["records"]:
        assert rec["class"] == "BothNondecreasing"
    assert result["empirical_B0"] == pytest.approx(0.2)
    csv_path = tmp_path / "sweep.csv"
    rows = list(csv.reader(csv_path.read_text().splitlines()))
    assert rows[0][0] == "B"
    assert len(rows) == 6


def test_sweep_brackets_at_the_config_tolerance(tmp_path, capsys,
                                               monkeypatch):
    # the records' bracket is decided at the config's verify.hessian_tol,
    # and the CSV carries both of its ends
    seen = []
    min_eig = cli.diagnostics.second_variation_min_eig

    def spy(profile, hessian_tol):
        seen.append(hessian_tol)
        return min_eig(profile, hessian_tol)
    monkeypatch.setattr(cli.diagnostics, "second_variation_min_eig", spy)
    cfg = write_config(tmp_path / "cfg.json",
                       grid={"R_max": 30.0, "N": 400},
                       sweep={"b_start": -0.1, "b_stop": 0.1, "b_step": 0.1},
                       verify={"hessian_tol": 0.25})
    out = tmp_path / "sweep.json"
    code, stdout, _ = run(capsys, "sweep", "--config", str(cfg),
                          "--out", str(out))
    assert code == 0
    assert seen == [0.25] * 3
    records = json.loads(stdout)["records"]
    for rec in records:
        assert -0.25 <= rec["hessian_min_eig"] <= rec["hessian_min_eig_upper"]
    rows = list(csv.reader((tmp_path / "sweep.csv").read_text().splitlines()))
    assert rows[0] == ["B", "converged", "class", "a_plus", "a_minus",
                       "quantization_gap", "hessian_min_eig",
                       "hessian_min_eig_upper"]
    assert [[float(x) for x in row[6:]] for row in rows[1:]] == [
        [rec["hessian_min_eig"], rec["hessian_min_eig_upper"]]
        for rec in records]


def test_sweep_csv_path_keeps_dotted_directories(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       grid={"R_max": 30.0, "N": 400},
                       sweep={"b_start": -0.1, "b_stop": 0.1, "b_step": 0.1})
    (tmp_path / "run.v2").mkdir()
    code, stdout, _ = run(capsys, "sweep", "--config", str(cfg),
                          "--out", str(tmp_path / "run.v2" / "sweep"))
    assert code == 0
    assert (tmp_path / "run.v2" / "sweep").read_text() == stdout.strip()
    csv_text = (tmp_path / "run.v2" / "sweep.csv").read_text()
    rows = list(csv.reader(csv_text.splitlines()))
    assert len(rows) == 4
    assert not (tmp_path / "run.csv").exists()


def test_sweep_needs_a_sweep_section(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    code, stdout, stderr = run(capsys, "sweep", "--config", str(cfg))
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {"error": "ConfigError", "message":
                                  "sweep command needs a sweep section"}


def test_sweep_rejects_csv_out(tmp_path, capsys):
    # the JSON would be written first and then overwritten by the CSV
    cfg = write_config(tmp_path / "cfg.json",
                       grid={"R_max": 30.0, "N": 400},
                       sweep={"b_start": -0.1, "b_stop": 0.1, "b_step": 0.1})
    out = tmp_path / "s.csv"
    code, stdout, stderr = run(capsys, "sweep", "--config", str(cfg),
                               "--out", str(out))
    assert code == 1
    assert stdout == ""
    assert not out.exists()
    assert json.loads(stderr)["error"] == "ConfigError"


def test_sweep_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       grid={"R_max": 30.0, "N": 400},
                       sweep={"b_start": -0.1, "b_stop": 0.1, "b_step": 0.1})
    _, out1, _ = run(capsys, "sweep", "--config", str(cfg))
    _, out2, _ = run(capsys, "sweep", "--config", str(cfg))
    assert out1 == out2


def test_sweep_rejects_range_outside_hypothesis(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       sweep={"b_start": 0.0, "b_stop": 1.5, "b_step": 0.5})
    code, _, stderr = run(capsys, "sweep", "--config", str(cfg))
    assert code == 1
    error = json.loads(stderr)
    assert error["error"] == "HypothesisViolation"
    assert "B^2 < A_plus*A_minus fails" in error["message"]


@pytest.mark.parametrize("sweep", [
    {"b_start": -0.1, "b_stop": 0.1, "b_step": 0.0},
    {"b_start": -0.1, "b_stop": 0.1, "b_step": float("nan")},
    {"b_start": -0.1, "b_stop": float("inf"), "b_step": 0.1},
    {"b_start": 0.1, "b_stop": -0.1, "b_step": 0.1},
    {"b_start": -0.1, "b_stop": 0.1},
    ["b_start", "b_stop", "b_step"],
])
def test_sweep_rejects_bad_range(tmp_path, capsys, sweep):
    cfg = write_config(tmp_path / "cfg.json", sweep=sweep)
    code, stdout, stderr = run(capsys, "sweep", "--config", str(cfg))
    assert code == 1
    assert stdout == ""
    assert json.loads(stderr)["error"] == "ConfigError"


@pytest.mark.parametrize("sweep", [
    {"b_start": -1e308, "b_stop": 1e308, "b_step": 1.0},  # overflows to inf
    {"b_start": -0.1, "b_stop": 0.1, "b_step": 1e-9},     # 2e8 values
    {"b_start": -0.5, "b_stop": 0.5, "b_step": 1e-4},     # 10001 values
])
def test_sweep_value_count_is_bounded(tmp_path, capsys, sweep):
    cfg = write_config(tmp_path / "cfg.json", sweep=sweep)
    with pytest.raises(ConfigError, match="more than 10000"):
        load_config(str(cfg))
    code, stdout, stderr = run(capsys, "sweep", "--config", str(cfg))
    assert code == 1
    assert stdout == ""
    assert json.loads(stderr)["error"] == "ConfigError"


def test_sweep_rejects_values_merged_by_rounding(tmp_path, capsys):
    # 0, 1e-13, 2e-13 and 3e-13 all round to B = 0.0 at 12 decimals
    sweep = {"b_start": 0.0, "b_stop": 3e-13, "b_step": 1e-13}
    cfg = write_config(tmp_path / "cfg.json", sweep=sweep)
    with pytest.raises(ConfigError, match="coincide"):
        load_config(str(cfg))
    code, stdout, stderr = run(capsys, "sweep", "--config", str(cfg))
    assert (code, stdout) == (1, "")
    assert json.loads(stderr)["error"] == "ConfigError"


def test_sweep_values_of_the_benchmark_range(tmp_path):
    # the 19 values -0.9, ..., 0.9 stay distinct and keep their rounding
    sweep = {"b_start": -0.9, "b_stop": 0.9, "b_step": 0.1}
    cfg = write_config(tmp_path / "cfg.json", sweep=sweep)
    assert load_config(str(cfg))["sweep"] == [
        round(-0.9 + k * 0.1, 12) for k in range(19)]


@pytest.mark.parametrize("b_start,b_stop", [(0.0, 30000.3),
                                            (-30000.3, 0.0)])
def test_sweep_keeps_its_endpoint_far_from_unit_scale(tmp_path, b_start,
                                                      b_stop):
    # the endpoint's rounding, 3.6e-12 here, passes b_stop by more than an
    # absolute 1e-12; the slack scales with the range's ends, and the last
    # value within it is b_stop itself
    sweep = {"b_start": b_start, "b_stop": b_stop, "b_step": 10000.1}
    cfg = write_config(tmp_path / "cfg.json", sweep=sweep)
    vals = load_config(str(cfg))["sweep"]
    assert len(vals) == 4 and vals[-1] == b_stop


def test_sweep_value_count_at_the_bound(tmp_path):
    sweep = {"b_start": -0.5, "b_stop": 0.4999, "b_step": 1e-4}
    cfg = write_config(tmp_path / "cfg.json", sweep=sweep)
    assert len(load_config(str(cfg))["sweep"]) == 10_000


def test_verify_config_without_params(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", grid={"R_max": 40.0, "N": 400})
    prof = tmp_path / "p.json"
    run(capsys, "solve", "--config", str(cfg), "--out", str(prof))
    vcfg = tmp_path / "v.json"
    vcfg.write_text(json.dumps({"version": 1,
                                "verify": {"residual_tol": 1e-9}}))
    code, stdout, _ = run(capsys, "verify", str(prof), "--config", str(vcfg))
    checks = {c["check"]: c for c in map(json.loads,
                                         stdout.strip().splitlines())}
    assert code in (0, 3)
    assert checks["residual_norm"]["tolerance"] == 1e-9
    # the commands that solve need params
    for command in ("solve", "sweep", "asymptotics"):
        code, _, stderr = run(capsys, command, "--config", str(vcfg))
        assert code == 1
        assert "exactly one" in json.loads(stderr)["message"]
    # the tail fit window is fixed at [R_max/4, 3 R_max/4]: a config that
    # names one, even that one, is refused
    vcfg.write_text(json.dumps({"version": 1, "fit_window": [10.0, 30.0]}))
    code, stdout, stderr = run(capsys, "verify", str(prof),
                               "--config", str(vcfg))
    assert code == 1
    assert stdout == ""
    assert json.loads(stderr)["error"] == "ConfigError"


def test_inputs_far_from_unit_scale_end_in_json_lines(tmp_path, capsys,
                                                      profile_text):
    # far from unit scale no envelope radius R <= 2^53 certifies, the
    # closed-form tail can leave the float range, and A t^2 can underflow:
    # each command still ends in its exit code and JSON lines.  The solve
    # at t_+ = 1e-170 converges, since its far row reads only t, and its
    # profile fails only the closed-form tail's checks
    params = {"A_plus": 1.0, "A_minus": 1.0, "B": 0.5, "t_plus": 1e-22,
              "t_minus": 1.0}
    cfg = write_config(tmp_path / "t22.json", params=params)
    code, stdout, _ = run(capsys, "asymptotics", "--config", str(cfg))
    assert code == 0
    report = json.loads(stdout)
    assert report["R"] is None and "2^53" in report["selection_error"]
    cfg = write_config(tmp_path / "t170.json",
                       params={**params, "t_plus": 1e-170},
                       grid={"R_max": 20.0, "N": 200})
    out = tmp_path / "p.json"
    code, stdout, stderr = run(capsys, "solve", "--config", str(cfg),
                               "--out", str(out))
    assert (code, stderr) == (0, "")
    assert json.loads(stdout)["iterations"] == [4, 0]
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 3
    assert {c["check"] for c in map(json.loads, stdout.splitlines())
            if not c["pass"]} == {"tail_fit", "envelope_sandwich"}
    obj = json.loads(profile_text)
    obj["params"].update(A_plus=1e-300, B=0.0)
    cfg = write_config(tmp_path / "a300.json", params=obj["params"])
    code, stdout, stderr = run(capsys, "asymptotics", "--config", str(cfg))
    assert code == 1
    assert stdout == ""
    (line,) = stderr.splitlines()
    overflow = "closed-form tail coefficient b_plus leaves the float range"
    assert json.loads(line) == {"error": "OverflowError", "message": overflow}
    path = tmp_path / "a300_profile.json"
    path.write_text(json.dumps(obj))
    code, stdout, _ = run(capsys, "verify", str(path))
    checks = {c["check"]: c for c in map(json.loads, stdout.splitlines())}
    assert code == 3
    assert {"residual_norm", "positivity_min", "amplitude_bound_margin",
            "quantization_gap", "pohozaev_at_R_max", "near_origin_order_plus",
            "near_origin_order_minus", "hessian_min_eig", "tail_fit",
            "envelope_sandwich"} <= set(checks)
    for name in ("tail_fit", "envelope_sandwich"):
        assert checks[name]["pass"] is False
        assert isinstance(checks[name]["value"], str)
    assert checks["tail_fit"]["value"] == overflow


def test_asymptotics_report(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    code, stdout, _ = run(capsys, "asymptotics", "--config", str(cfg))
    assert code == 0
    rep = json.loads(stdout)
    assert rep["a_plus"] == pytest.approx(-1 / 3)
    assert rep["b_plus"] == pytest.approx(-0.5)
    assert rep["delta"] is not None and rep["R"] is not None
    series = rep["M_coefficients"]["upper_plus_lower_minus"]["plus"]
    assert series["M_2"] == "0"
    assert series["M_4"] == "0"
    assert "/" in series["M_6"] or series["M_6"].lstrip("-").isdigit()


# sha256 of the asymptotics report's stdout on the reference sets and at
# t_+ = 1e-22, where selection fails: every exact M coefficient, float and
# key order is pinned
REPORT_DIGESTS = {
    "classical":
        "03d84e5206295aaa00e052287f0a35bc54ad6d5c973b7639a339a0fa2775cc7b",
    "bpos":
        "7a668f22bc81f025dfcd7b9645c61a19792f4c301d621fc1a6faff7246e35978",
    "bneg":
        "863e6fcfedbbe09c8154bd5354d4c329cd532870aaed8c8756ec73d28101923b",
    "asym":
        "f3dcbefff15caddbd8311230f6bab067e860b11a86b221904a84deb7888d765c",
    "overshoot":
        "06e0e4b85b28b7a53d371fdc2161dd87d64da84cfcdc77ecc0d2ce0526732e05",
    "t22":
        "ea48f4953018687fb299c5e06373dc20dcf17aa11a5132c65c9e3bee4a9fc7cd",
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_asymptotics_report_bytes_are_pinned(tmp_path, capsys, name):
    p, n = CASES.get(name, ((1.0, 1.0, 0.5, 1e-22, 1.0), (1, 1)))
    cfg = write_config(tmp_path / "cfg.json", params=dict(zip(
        ("A_plus", "A_minus", "B", "t_plus", "t_minus"), p)),
        degrees={"n_plus": n[0], "n_minus": n[1]})
    code, stdout, stderr = run(capsys, "asymptotics", "--config", str(cfg))
    assert (code, stderr) == (0, "")
    assert hashlib.sha256(stdout.encode()).hexdigest() == REPORT_DIGESTS[name]


def test_export_profiles_and_slopes(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    prof_path = tmp_path / "p.json"
    run(capsys, "solve", "--config", str(cfg), "--out", str(prof_path))
    out = tmp_path / "profiles.csv"
    code, _, _ = run(capsys, "export", str(prof_path), "profiles",
                     "--out", str(out))
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["r", "f_plus", "f_minus"]
    assert len(rows) == 1 + 1001  # header + N+1 nodes
    code, _, _ = run(capsys, "export", str(prof_path), "slopes",
                     "--out", str(tmp_path / "slopes.csv"))
    assert code == 0


def test_export_tail_column_approaches_leading_coefficient(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json",
                       params={"A_plus": 1.0, "A_minus": 1.0, "B": 0.0,
                               "t_plus": 1.0, "t_minus": 1.0},
                       degrees={"n_plus": 1, "n_minus": 0},
                       grid={"R_max": 60.0, "N": 1200})
    prof_path = tmp_path / "p.json"
    run(capsys, "solve", "--config", str(cfg), "--out", str(prof_path))
    out = tmp_path / "tail.csv"
    code, _, _ = run(capsys, "export", str(prof_path), "tail",
                     "--out", str(out))
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0][:3] == ["r", "tail2_plus", "tail2_minus"]
    last = rows[-1]
    assert float(last[1]) == pytest.approx(-0.5, rel=0.02)


def test_export_envelope_ordered(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", grid={"R_max": 60.0, "N": 1500})
    prof_path = tmp_path / "p.json"
    run(capsys, "solve", "--config", str(cfg), "--out", str(prof_path))
    out = tmp_path / "env.csv"
    code, _, _ = run(capsys, "export", str(prof_path), "envelope",
                     "--out", str(out))
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    header = rows[0]
    assert header == ["r", "w_lower_plus", "f_plus", "w_upper_plus",
                      "w_lower_minus", "f_minus", "w_upper_minus"]
    for row in rows[1:]:
        vals = [float(v) for v in row]
        assert vals[1] <= vals[2] <= vals[3]
        assert vals[4] <= vals[5] <= vals[6]


def test_export_envelope_beyond_the_grid(tmp_path, capsys):
    # bpos certifies its envelope at R = 28: a grid ending at R_max = 20
    # holds no node of the sandwich, so export fails as verify's
    # envelope_sandwich check does, with one JSON error line and no file
    cfg = write_config(tmp_path / "cfg.json", grid={"R_max": 20.0, "N": 1000})
    prof_path = tmp_path / "p.json"
    run(capsys, "solve", "--config", str(cfg), "--out", str(prof_path))
    out = tmp_path / "env.csv"
    code, stdout, stderr = run(capsys, "export", str(prof_path), "envelope",
                               "--out", str(out))
    assert code == 1
    assert stdout == ""
    [line] = stderr.splitlines()
    assert json.loads(line) == {"error": "ValueError", "message":
                                "envelope radius R=28.0 beyond the grid"}
    assert not out.exists()
    code, stdout, _ = run(capsys, "verify", str(prof_path))
    checks = {c["check"]: c for c in map(json.loads, stdout.splitlines())}
    assert checks["envelope_sandwich"]["value"] == json.loads(line)["message"]


def test_export_write_failure(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    prof_path = tmp_path / "p.json"
    run(capsys, "solve", "--config", str(cfg), "--out", str(prof_path))
    code, _, stderr = run(capsys, "export", str(prof_path), "profiles",
                          "--out", str(tmp_path / "no_dir" / "x.csv"))
    assert code == 1
    assert json.loads(stderr)["error"]


def test_numeric_output_has_17_significant_digits(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    prof_path = tmp_path / "p.json"
    run(capsys, "solve", "--config", str(cfg), "--out", str(prof_path))
    out = tmp_path / "profiles.csv"
    run(capsys, "export", str(prof_path), "profiles", "--out", str(out))
    rows = list(csv.reader(out.read_text().splitlines()))
    # values round-trip exactly through the CSV
    prof = gv.profile_from_json(prof_path.read_text())
    assert float(rows[5][1]) == prof.f[0][4]


OVERRIDES = [("--grid-n", "600"), ("--r-max", "30.0"), ("--tol", "1e-9")]
# flags that solve and sweep once took
REMOVED = [("--far-field", "robin")]


# flags that verify, export and asymptotics once parsed and ignored, and
# the removed ones, which no command takes
UNREAD = [*((["verify", "p.json"], f)
            for f in [("--out", "x"), *OVERRIDES, *REMOVED]),
          *((["export", "p.json", "tail"], f)
            for f in [("--config", "c.json"), *OVERRIDES, *REMOVED]),
          *((["asymptotics", "--config", "c.json"], f)
            for f in [("--out", "x"), *OVERRIDES, *REMOVED]),
          *(([command, "--config", "c.json"], f)
            for command in ("solve", "sweep") for f in REMOVED)]


@pytest.mark.parametrize("argv, flag", UNREAD,
                         ids=[f"{argv[0]}{flag[0]}" for argv, flag in UNREAD])
def test_commands_reject_flags_they_do_not_read(capsys, argv, flag):
    code, stdout, stderr = run(capsys, *argv, *flag)
    assert (code, stdout) == (1, "")
    assert json.loads(stderr) == {
        "error": "ConfigError",
        "message": f"unrecognized arguments: {' '.join(flag)}"}


@pytest.mark.parametrize("argv, message", [
    (["verify"], "the following arguments are required: profile"),
    (["solve", "--bogus"], "the following arguments are required: --config"),
    (["solve", "--config", "c.json", "--bogus"],
     "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
    (["plot"], "argument command: invalid choice: 'plot'")],
    ids=["no-profile", "no-config", "unread-flag", "no-command", "unknown"])
def test_usage_error_is_one_json_line(capsys, argv, message):
    # a usage error is a configuration error, exit 1, not the solver's 2,
    # and stderr holds one JSON line, not argparse's usage text
    code, stdout, stderr = run(capsys, *argv)
    assert (code, stdout) == (1, "")
    (line,) = stderr.splitlines()
    error = json.loads(line)
    assert error["error"] == "ConfigError"
    assert error["message"].startswith(message)


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_prints_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: glvortex") and err == ""


@pytest.mark.parametrize("command", ["solve", "sweep"])
def test_solving_commands_take_every_override(command):
    args = build_parser().parse_args(
        [command, "--config", "c.json", "--out", "o.json",
         *(part for flag in OVERRIDES for part in flag)])
    assert (args.grid_n, args.r_max, args.tol) == (600, 30.0, 1e-9)


SRC = Path(cli.__file__).resolve().parents[1]

# solve, verify and a 3-value sweep through cli.main in a fresh isolated
# interpreter, as a console-script user runs them; the last stdout line is
# the sorted names of the scipy modules loaded by then
_CLI_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from glvortex import cli
work = sys.argv[2]
config = work + "/bpos.json"
with open(config, "w") as f:
    json.dump({"version": 1, "params": {"A_plus": 1.0, "A_minus": 1.0,
               "B": 0.5, "t_plus": 1.0, "t_minus": 1.0},
               "degrees": {"n_plus": 1, "n_minus": 1},
               "grid": {"R_max": 20.0, "N": 200},
               "sweep": {"b_start": 0.4, "b_stop": 0.6, "b_step": 0.1}}, f)
codes = []
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes.append(cli.main(["solve", "--config", config,
                           "--out", work + "/profile.json"]))
    codes.append(cli.main(["verify", work + "/profile.json"]))
    codes.append(cli.main(["sweep", "--config", config]))
sweep = json.loads(out.getvalue().splitlines()[-1])
print(json.dumps({"codes": codes, "sweep_records": len(sweep["records"]),
                  "scipy": sorted(m for m in sys.modules
                                  if m == "scipy" or m.startswith("scipy."))}))
"""


def test_cli_commands_import_no_scipy_module(tmp_path):
    # the LAPACK routines come from scipy's extension file, loaded by spec:
    # no scipy package module, scipy.linalg's imports least of all, runs
    done = subprocess.run([sys.executable, "-I", "-c", _CLI_CHILD,
                           str(SRC), str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["codes"][0] == report["codes"][2] == 0
    assert report["codes"][1] in (0, 3)         # a coarse grid may fail checks
    assert report["sweep_records"] == 3
    assert report["scipy"] == []


@pytest.mark.parametrize("command", ["verify", "export"])
@pytest.mark.parametrize("brackets", [
    solver._ORJSON_MAX_BRACKETS - 1, solver._ORJSON_MAX_BRACKETS,
    solver._ORJSON_MAX_BRACKETS + 1, 5000, 200_000])
def test_deeply_nested_profile_ends_in_an_exit_code(tmp_path, profile_text,
                                                     command, brackets):
    # a profile with a nested value under an unknown key, its bracket count
    # about the bound of orjson's parse and far beyond it: the file loads,
    # or is one ValueError line as too deep, and the interpreter never
    # crashes (a signal, which a child reports as a negative return code)
    nested = brackets - profile_text.count("[") - profile_text.count("{")
    deep = tmp_path / "deep.json"
    deep.write_text(profile_text.replace(
        "{", '{"deep":' + "[" * nested + "]" * nested + ",", 1))
    argv = [command, str(deep)] + (
        ["profiles", "--out", str(tmp_path / "out.csv")]
        if command == "export" else [])
    done = subprocess.run(
        [sys.executable, "-I", "-c", "import sys; sys.path.insert(0, "
         "sys.argv[1]); from glvortex import cli; "
         "sys.exit(cli.main(sys.argv[2:]))", str(SRC), *argv],
        capture_output=True, text=True, timeout=120)
    assert done.returncode in (0, 1, 3), done.stderr
    lines = [json.loads(line) for line in done.stderr.splitlines()]
    if brackets <= solver._ORJSON_MAX_BRACKETS + 1:
        assert done.returncode in (0, 3), done.stderr
    if done.returncode == 1:
        assert [line["error"] for line in lines] == ["ValueError"]
