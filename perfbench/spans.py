"""Per-layer timing of glvortex from outside the package.

The tracer replaces functions at the attributes their callers look up,
including names bound by `from ... import` (so `cli.build_grid` and
`solver.build_grid` are both wrapped), records one span per call with its
parent, and puts every attribute back on `uninstall`.  No file of the
package changes.  A layer's self time is its span's duration minus the
durations of its child spans.

Calls between functions of one module that are not in TARGETS (for example
`select_envelope` trying each candidate through `verify_envelope_pair`) are
not layer boundaries and stay inside their caller's self time.
"""

from __future__ import annotations

import functools
import time

# (module, attribute) -> span name.  Names missing from the package are
# skipped and reported by `missing`, so a refactor shows up as a gap rather
# than a crash.
TARGETS = {
    ("cli", "load_config"): "cli.load_config",
    ("model", "validate"): "model.validate",
    ("model", "derived_bounds"): "model.derived_bounds",
    ("model", "coupling_from_json"): "model.coupling_from_json",
    ("model", "normalize_degrees"): "model.normalize_degrees",
    ("grid", "build_grid"): "grid.build_grid",
    ("grid", "radial_operator"): "grid.radial_operator",
    ("grid", "quadrature"): "grid.quadrature",
    ("grid", "quadrature_upto"): "grid.quadrature_upto",
    ("solver", "continuation_solve"): "solver.continuation_solve",
    ("solver", "newton_solve"): "solver.newton_solve",
    ("solver", "residual_norm"): "solver.residual_norm",
    ("solver", "profile_to_json"): "solver.profile_to_json",
    ("solver", "profile_from_json"): "solver.profile_from_json",
    ("diagnostics", "second_variation_min_eig"):
        "diagnostics.second_variation_min_eig",
    ("diagnostics", "second_variation_matrix"):
        "diagnostics.second_variation_matrix",
    ("diagnostics", "quantization_check"): "diagnostics.quantization_check",
    ("diagnostics", "pohozaev_residual"): "diagnostics.pohozaev_residual",
    ("diagnostics", "monotonicity_classify"):
        "diagnostics.monotonicity_classify",
    ("diagnostics", "near_origin_order"): "diagnostics.near_origin_order",
    ("diagnostics", "amplitude_bound_check"):
        "diagnostics.amplitude_bound_check",
    ("asymptotics", "select_envelope"): "asymptotics.select_envelope",
    ("asymptotics", "envelope_check"): "asymptotics.envelope_check",
    ("asymptotics", "tail_fit"): "asymptotics.tail_fit",
    ("asymptotics", "second_coeffs"): "asymptotics.second_coeffs",
    ("asymptotics", "leading_coeffs"): "asymptotics.leading_coeffs",
}

# The Newton kernels.  The banded LU is scipy's `solve_banded` as bound in
# the solver module; residual and Jacobian assembly are methods of the
# solver's private discrete system, the one place they can be timed per
# iteration from outside.
KERNELS = {
    ("solver", "solve_banded"): "solver.banded_lu",
    ("solver", "_DiscreteSystem.residual"): "solver.residual_eval",
    ("solver", "_DiscreteSystem.jacobian_banded"): "solver.jacobian_eval",
}


def _summary(name, result):
    """The small part of a return value the counters need; None when the
    value no longer carries it, so a changed return type cannot fail an op."""
    try:
        if name in ("solver.continuation_solve", "solver.newton_solve"):
            return {"iterations": list(result.report.iterations)}
        if name == "asymptotics.select_envelope":
            return {"delta": float(result.delta), "R": float(result.R)}
    except (AttributeError, TypeError, ValueError):
        pass
    return None


class Span:
    __slots__ = ("id", "parent", "name", "op", "start", "end", "error",
                 "info")

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Wraps the TARGETS and KERNELS of the given modules while installed.

    Spans are recorded only while `op` names the op being run, so the
    benchmark's own calls into the package stay untimed.
    """

    def __init__(self, modules: dict):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []          # (owner, attribute, original, wrapper)
        self.missing = []
        scan = list(modules.values())
        for (mod_name, attr), name in {**TARGETS, **KERNELS}.items():
            owner = modules[mod_name]
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            if len(path) > 1:
                self._patches.append((owner, path[-1], original, wrapper))
                continue
            for module in scan:
                for binding, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, binding, original,
                                              wrapper))

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:   # the benchmark's own calls
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                tracer.end(span)
            span.info = _summary(name, result)
            return result

        return traced

    def begin(self, name) -> Span:
        span = Span()
        span.id = len(self.spans)
        span.parent = self._stack[-1].id if self._stack else None
        span.name = name
        span.op = self.op
        span.error = None
        span.info = None
        self.spans.append(span)
        self._stack.append(span)
        span.end = None
        span.start = time.perf_counter()
        return span

    def end(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


def self_times(spans) -> dict:
    """Span id -> duration minus the duration of its child spans."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.end - s.start
    return own
