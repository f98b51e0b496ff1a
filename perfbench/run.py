"""Benchmark: time to a certified vortex profile through the glvortex CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload default-cli --seed 1 --seconds 55 --trace 0

The CLI paths `solve`, `verify` and `sweep` run in-process through
`glvortex.cli.main`, in one process pinned to one BLAS thread, as a closed
loop from one client.  Every output is judged by the benchmark itself (see
checks.py).  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it records
the seed, the environment and the sample counts.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
passes alternate between traced and untraced; the traced ones give per-layer
self times and counts per pass (see spans.py), and the difference between
the two kinds of pass is the tracing overhead.  The run's records, and in a
traced run its spans, are written to .bench_out/ in the checkout.

An op is one CLI command.  It fails when it exits 1 or 2, raises, or fails
the benchmark's output check; a `sweep` fails when a record did not
converge.  `verify` exiting 3 is a verdict: it counts against
certified_frac, not as a failed op.  Output that the program reported as a
success but that the check rejects also sets `correct` to false.
"""

from __future__ import annotations

import os

# Before numpy is imported: its OpenBLAS would otherwise start one thread
# per core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import inspect  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import (CHECK_NAMES, VERIFY_SECTION, check_profile,  # noqa: E402
                    check_sweep, check_verify)
from spans import Tracer, self_times  # noqa: E402
from workloads import (SWEEP, TAIL_BEYOND, TAIL_QUANTILE,  # noqa: E402
                       WORKLOADS, Case, InputSource, run_config)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 15

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import glvortex.cli
glvortex.cli.load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def tail(samples, q):
    """The nearest-rank q-quantile, which must leave TAIL_BEYOND samples
    beyond it."""
    s = sorted(samples)
    k = math.ceil(q * len(s)) - 1
    if len(s) - 1 - k < TAIL_BEYOND:
        raise ValueError(f"{len(s)} samples leave no p{float(100 * q):.0f}")
    return s[k]


def environment(numpy, scipy):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError, AttributeError):
            return None
        return dep.get("openblas configuration") or dep.get("name")

    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


class SetupSampler:
    """Set-up time of a fresh interpreter: import glvortex.cli and load the
    first op's config, which builds its grid.

    The SETUP_SAMPLES samples are spread evenly over the measured interval,
    between ops, so that one slow stretch of a shared machine cannot hold
    all of them.
    """

    def __init__(self, config_path: Path, seconds: float):
        self.config_path = config_path
        self.interval = seconds / SETUP_SAMPLES
        self.samples = []
        self.start = None

    def sample(self):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC),
             str(self.config_path)],
            capture_output=True, text=True, timeout=120, check=True)
        self.samples.append(float(done.stdout.strip().splitlines()[-1]))

    def between_ops(self):
        if self.start is None:
            self.start = time.perf_counter()
        due = (time.perf_counter() - self.start) / self.interval
        if len(self.samples) < min(SETUP_SAMPLES, 1 + int(due)):
            self.sample()

    def finish(self) -> list:
        while len(self.samples) < SETUP_SAMPLES:
            self.sample()
        return self.samples


class Bench:
    """Runs ops of one workload and keeps their records."""

    def __init__(self, pkg, workdir: Path, tracer=None, between_ops=None):
        self.pkg = pkg
        self.between_ops = between_ops
        self.cli = pkg["cli"]
        self.solver = pkg["solver"]
        self.workdir = workdir
        self.tracer = tracer
        self.records = []
        self.problems = []
        self.incorrect = False
        self.vcfg = workdir / "verify.json"
        self.vcfg.write_text(json.dumps({"version": 1,
                                         "verify": VERIFY_SECTION}))

    def command(self, argv, traced):
        """Run one CLI command in-process; returns (rc, wall, out, error)."""
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        root = None
        if traced:
            self.tracer.op = len(self.records)
            root = self.tracer.begin("cli." + argv[0])
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a raise is a failed op, not a crash
            error = traceback.format_exc(limit=-3)
        wall = time.perf_counter() - t0
        if traced:
            self.tracer.end(root)
            self.tracer.op = None
        if error is None and rc not in (0, 3):
            error = err.getvalue().strip()[-300:] or f"exit {rc}"
        return rc, wall, out.getvalue(), error

    def flag(self, rec, problems):
        """Mark output the benchmark's check rejects: a failed op, and a
        wrong answer when the program had reported success."""
        rec["failed"] = True
        rec["problems"] = problems
        self.problems.extend(f"{rec['case']}: {p}" for p in problems)
        self.incorrect = True

    def run_case(self, case: Case, pass_no: int, traced: bool, probe: bool):
        cfg = self.workdir / "case.json"
        cfg.write_text(json.dumps(run_config(case)))
        prof = self.workdir / "profile.json"
        if prof.exists():
            prof.unlink()
        rc, wall, _, error = self.command(
            ["solve", "--config", str(cfg), "--out", str(prof)], traced)
        solve = {"pass": pass_no, "traced": traced, "kind": "solve",
                 "case": case.name, "N": case.N, "R_max": case.R_max,
                 "rc": rc, "wall": wall, "failed": rc != 0, "error": error}
        self.records.append(solve)
        result = {"solve_s": wall, "verify_s": 0.0, "nodes": 0,
                  "certified": False}
        if rc != 0:
            return result
        text = prof.read_text()
        solve["profile_bytes"] = len(text.encode())
        problems, profile = check_profile(text, case, self.solver)
        if problems:
            self.flag(solve, problems)
            return result
        result["nodes"] = case.N + 1
        if probe:
            solve["probe_ms"] = self.probe(profile)
        if not case.verify:
            result["certified"] = True
            return result
        rc, wall, out, error = self.command(
            ["verify", str(prof), "--config", str(self.vcfg)], traced)
        result["verify_s"] = wall
        verify = {"pass": pass_no, "traced": traced, "kind": "verify",
                  "case": case.name, "N": case.N, "rc": rc, "wall": wall,
                  "failed": error is not None, "error": error}
        self.records.append(verify)
        if error is None:
            problems, verify["failed_checks"] = check_verify(rc, out)
            if problems:
                self.flag(verify, problems)
        result["certified"] = rc == 0 and not verify["failed"]
        return result

    def run_sweep(self, op, pass_no: int, traced: bool):
        cfg = self.workdir / "sweep.json"
        cfg.write_text(json.dumps(run_config(op, sweep=SWEEP)))
        rc, wall, out, error = self.command(["sweep", "--config", str(cfg)],
                                            traced)
        rec = {"pass": pass_no, "traced": traced, "kind": "sweep",
               "case": op.name, "N": op.N, "R_max": op.R_max, "rc": rc,
               "wall": wall, "failed": error is not None or rc != 0,
               "error": error}
        self.records.append(rec)
        if not rec["failed"]:
            problems, rec["bad_records"] = check_sweep(out)
            if problems:
                self.flag(rec, problems)
            elif rec["bad_records"]:
                rec["failed"] = True
        return wall

    def probe(self, profile) -> dict:
        """Per-call cost of the Newton kernels on a converged profile: the
        residual, the Jacobian and one banded LU solve with it."""
        t0 = time.perf_counter()
        g_plus, g_minus = self.solver.residual(profile)
        t1 = time.perf_counter()
        ab = self.solver.jacobian(profile)
        t2 = time.perf_counter()
        rhs = self.pkg["numpy"].empty(2 * len(g_plus))
        rhs[0::2] = g_plus
        rhs[1::2] = g_minus
        self.pkg["solve_banded"]((2, 2), ab, -rhs)
        t3 = time.perf_counter()
        return {"residual": 1e3 * (t1 - t0), "jacobian": 1e3 * (t2 - t1),
                "banded_lu": 1e3 * (t3 - t2)}

    def run_pass(self, ops, pass_no: int, traced: bool, probe: bool):
        """Run one pass; returns (pass wall, per-case results)."""
        if traced:
            self.tracer.install()
        try:
            wall, cases = 0.0, []
            for op in ops:
                if self.between_ops is not None:
                    self.between_ops()
                if isinstance(op, Case):
                    res = self.run_case(op, pass_no, traced, probe)
                    wall += res["solve_s"] + res["verify_s"]
                    cases.append(res)
                else:
                    wall += self.run_sweep(op, pass_no, traced)
        finally:
            if traced:
                self.tracer.uninstall()
        return wall, cases


def end_to_end(bench, passes, setup, q) -> dict:
    cases = [c for p in passes for c in p["cases"]]
    case_s = [c["solve_s"] + c["verify_s"] for c in cases]
    solve_s = [c["solve_s"] for c in cases]
    ops = bench.records
    certified = sum(c["certified"] for c in cases)
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "case_s.p50": (statistics.median(case_s), "s"),
        "case_s.tail": (tail(case_s, q), "s"),
        # A mean, not a median: on a shared host the solve speeds up by a
        # quarter in bursts of a few seconds, so its samples in one run mix
        # two modes, and a median jumps between them with the mix.
        "solve_s.mean": (statistics.mean(solve_s), "s"),
        "solve_s.tail": (tail(solve_s, q), "s"),
        "pass_s": (statistics.median(p["wall"] for p in passes), "s"),
        "certified_per_s": (certified / sum(case_s), "1/s"),
        "certified_frac": (certified / len(cases), "ratio"),
        "solved_nodes_per_s": (sum(c["nodes"] for c in cases) / sum(solve_s),
                               "nodes/s"),
        "ok_frac": (1.0 - sum(r["failed"] for r in ops) / len(ops), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def command_summary(records, passes, q) -> dict:
    """Per-command timings and sample counts for the info line."""
    out = {"passes": len(passes), "tail_pct": float(100 * q)}
    cases = [c for p in passes for c in p["cases"]]
    samples = {"case_s": [c["solve_s"] + c["verify_s"] for c in cases]}
    for kind in ("solve", "verify", "sweep"):
        samples[f"{kind}_s"] = [r["wall"] for r in records
                                if r["kind"] == kind]
    for name, vals in samples.items():
        if not vals:
            continue
        out[f"{name}.n"] = len(vals)
        out[f"{name}.p50"] = statistics.median(vals)
        if len(vals) - math.ceil(q * len(vals)) >= TAIL_BEYOND:
            out[f"{name}.tail"] = tail(vals, q)
    out["failed_frac"] = sum(r["failed"] for r in records) / len(records)
    return out


def per_layer(bench, passes, tracer) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    n = len(traced)
    spans = tracer.spans
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    busy = Counter()
    calls = Counter()
    for s in spans:
        busy[s.name] += own[s.id]
        calls[s.name] += 1

    def parent_name(s):
        return by_id[s.parent].name if s.parent is not None else None

    steps = iters = no_conv = 0
    for s in spans:
        outer = (s.name == "solver.continuation_solve"
                 or (s.name == "solver.newton_solve"
                     and parent_name(s) != "solver.continuation_solve"))
        if not outer:
            continue
        if s.info is not None:
            iters += sum(s.info["iterations"])
            if s.name == "solver.continuation_solve":
                steps += len(s.info["iterations"])
        no_conv += s.error == "NoConvergence"

    tried = certified = 0
    r_grid, d_grid = envelope_candidate_grid(bench.pkg["asymptotics"])
    for s in spans:
        if s.name != "asymptotics.select_envelope":
            continue
        if s.info is not None:
            if s.info["R"] in r_grid and s.info["delta"] in d_grid:
                certified += 1
                tried += (r_grid.index(s.info["R"]) * len(d_grid)
                          + d_grid.index(s.info["delta"]) + 1)
        elif s.error == "SelectionFailed":
            tried += len(r_grid) * len(d_grid)

    traced_ops = [r for r in bench.records if r["traced"]]
    failed_checks = Counter(name for r in traced_ops
                            for name in r.get("failed_checks", ()))
    sizes = [r["profile_bytes"] for r in traced_ops if "profile_bytes" in r]
    probes = [r["probe_ms"] for r in traced_ops if "probe_ms" in r]
    traced_wall = statistics.median(p["wall"] for p in traced)
    plain_wall = statistics.median(p["wall"] for p in plain)

    values = {}

    def put(name, value, unit):
        values[name] = {"value": value, "unit": unit}

    for span_name, metric in LAYER_TIMES.items():
        put(metric, busy[span_name] / n, "s/pass")
    put("grid.quadrature_s",
        (busy["grid.quadrature"] + busy["grid.quadrature_upto"]) / n, "s/pass")
    put("model.self_s", sum(v for k, v in busy.items()
                            if k.startswith("model.")) / n, "s/pass")
    put("cli.self_s", sum(busy["cli." + k] for k in ("solve", "verify",
                                                     "sweep")) / n, "s/pass")
    put("solver.newton_iters", iters / n, "count/pass")
    put("solver.continuation_steps", steps / n, "count/pass")
    put("solver.no_convergence", no_conv / n, "count/pass")
    put("solver.residual_evals", calls["solver.residual_eval"] / n,
        "count/pass")
    put("solver.banded_lu_calls", calls["solver.banded_lu"] / n, "count/pass")
    for span_name, metric in (("solver.residual_eval", "solver.residual_ms"),
                              ("solver.jacobian_eval", "solver.jacobian_ms"),
                              ("solver.banded_lu", "solver.banded_lu_ms")):
        put(metric, 1e3 * busy[span_name] / calls[span_name]
            if calls[span_name] else 0.0, "ms/call")
    put("solver.profile_bytes", statistics.mean(sizes) if sizes else 0.0, "B")
    put("asymptotics.envelope_candidates", tried / n, "count/pass")
    put("asymptotics.envelope_certified_ratio",
        certified / tried if tried else 0.0, "ratio")
    for name in CHECK_NAMES:
        put(f"cli.verify_failed.{name}", failed_checks[name] / n,
            "count/pass")
    for kernel in ("residual", "jacobian", "banded_lu"):
        put(f"probe.{kernel}_ms",
            statistics.median(p[kernel] for p in probes) if probes else 0.0,
            "ms")
    put("trace.overhead_s", traced_wall - plain_wall, "s/pass")
    put("trace.overhead_frac", (traced_wall - plain_wall) / plain_wall,
        "ratio")
    put("trace.spans", len(spans) / n, "count/pass")
    return values


# span name -> per-layer metric of its self time per traced pass
LAYER_TIMES = {
    "diagnostics.second_variation_min_eig":
        "diagnostics.second_variation_min_eig_s",
    "diagnostics.second_variation_matrix":
        "diagnostics.second_variation_matrix_s",
    "diagnostics.quantization_check": "diagnostics.quantization_check_s",
    "diagnostics.pohozaev_residual": "diagnostics.pohozaev_residual_s",
    "diagnostics.monotonicity_classify": "diagnostics.monotonicity_classify_s",
    "diagnostics.near_origin_order": "diagnostics.near_origin_order_s",
    "diagnostics.amplitude_bound_check": "diagnostics.amplitude_bound_check_s",
    "asymptotics.select_envelope": "asymptotics.select_envelope_s",
    "asymptotics.envelope_check": "asymptotics.envelope_check_s",
    "asymptotics.tail_fit": "asymptotics.tail_fit_s",
    "asymptotics.second_coeffs": "asymptotics.second_coeffs_s",
    "asymptotics.leading_coeffs": "asymptotics.leading_coeffs_s",
    "solver.continuation_solve": "solver.continuation_solve_s",
    "solver.newton_solve": "solver.newton_solve_s",
    "solver.residual_eval": "solver.residual_s",
    "solver.jacobian_eval": "solver.jacobian_s",
    "solver.banded_lu": "solver.banded_lu_s",
    "solver.residual_norm": "solver.residual_norm_s",
    "solver.profile_to_json": "solver.profile_to_json_s",
    "solver.profile_from_json": "solver.profile_from_json_s",
    "grid.build_grid": "grid.build_grid_s",
    "grid.radial_operator": "grid.radial_operator_s",
    "cli.load_config": "cli.load_config_s",
}


def envelope_candidate_grid(asymptotics):
    """select_envelope's default (R, delta) candidates, in search order;
    empty when its signature no longer names them."""
    params = inspect.signature(asymptotics.select_envelope).parameters
    if "r_candidates" not in params or "delta_candidates" not in params:
        return [], []
    return ([float(r) for r in params["r_candidates"].default],
            [float(d) for d in params["delta_candidates"].default])


def load_package():
    """Import glvortex from this checkout's src/, never from elsewhere."""
    if not (SRC / "glvortex" / "cli.py").is_file():
        raise RuntimeError(f"no glvortex sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    from scipy.linalg import solve_banded

    import glvortex
    from glvortex import asymptotics, cli, diagnostics, grid, model, solver
    if SRC.resolve() not in Path(glvortex.__file__).resolve().parents:
        raise RuntimeError(f"glvortex imported from {glvortex.__file__}")
    return {"glvortex": glvortex, "model": model, "grid": grid,
            "solver": solver, "diagnostics": diagnostics,
            "asymptotics": asymptotics, "cli": cli, "numpy": numpy,
            "scipy": scipy, "solve_banded": solve_banded}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        pkg = load_package()
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    modules = {k: pkg[k] for k in ("glvortex", "model", "grid", "solver",
                                   "diagnostics", "asymptotics", "cli")}
    tracer = Tracer(modules) if args.trace else None
    q = TAIL_QUANTILE[args.workload]
    source = InputSource(args.workload,
                         random.Random(f"{args.workload}:{args.seed}"))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        first = source.next_pass()
        sampler = None
        if not args.trace:
            cfg = workdir / "setup.json"
            cfg.write_text(json.dumps(run_config(first[0])))
            sampler = SetupSampler(cfg, args.seconds)
        bench = Bench(pkg, workdir, tracer,
                      sampler.between_ops if sampler else None)
        # Warm-up on an input no measured op uses, so that one-time lazy
        # set-up inside numpy and scipy lands in no measured op.
        bench.run_case(first[0], -1, traced=False, probe=False)
        bench.records.clear()

        min_passes = 2 if args.trace else source.min_passes()
        passes = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 0
            wall, cases = bench.run_pass(source.next_pass(), len(passes),
                                         traced, probe=traced)
            passes.append({"wall": wall, "cases": cases, "traced": traced})
            elapsed = time.perf_counter() - start
            # stop at the pass boundary nearest to the requested time
            if (len(passes) >= min_passes
                    and elapsed * (1 + 0.5 / len(passes)) >= args.seconds):
                break

        if args.trace:
            setup = []
            metrics = per_layer(bench, passes, tracer)
        else:
            setup = sampler.finish()
            metrics = end_to_end(bench, passes, setup, q)
        info = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "measured_s": elapsed,
                "env": environment(pkg["numpy"], pkg["scipy"]),
                "commands": command_summary(bench.records, passes, q),
                "setup_samples": setup,
                "verify_section": VERIFY_SECTION,
                "problems": bench.problems[:20]}
        if tracer is not None:
            info["untraced_names"] = tracer.missing
        out_file = OUT / (f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
        dump = {"info": info, "records": bench.records, "metrics": metrics}
        if tracer is not None:
            dump["spans"] = [s.as_dict() for s in tracer.spans]
        out_file.write_text(json.dumps(dump))
        info["out"] = str(out_file.relative_to(ROOT))
        if args.trace:
            for op, r in enumerate(bench.records):
                if r["traced"] and r["kind"] == "solve":
                    print(json.dumps(solve_line(op, r, tracer.spans)))
        print(json.dumps({"info": info}))
        print(json.dumps({"correct": not bench.incorrect,
                          "attempted": len(bench.records),
                          "failed": sum(r["failed"] for r in bench.records),
                          "metrics": metrics}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def solve_line(op, rec, spans) -> dict:
    """One traced solve with the iteration counts of its continuation."""
    line = {"case": rec["case"], "N": rec["N"], "rc": rec["rc"],
            "wall": rec["wall"], "failed": rec["failed"]}
    for s in spans:
        if s.op == op and s.name == "solver.continuation_solve":
            if s.info is not None:
                line["newton_iters"] = sum(s.info["iterations"])
                line["continuation_steps"] = len(s.info["iterations"])
            line["error"] = s.error
    return line


if __name__ == "__main__":
    sys.exit(main())
