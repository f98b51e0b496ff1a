"""Inputs of the three workloads, generated from the workload seed.

A workload is a list of passes; one pass is the workload's whole input set,
run as one closed loop from a single client (each op starts when the previous
one ends).  Every op gets its own far radius R_max, drawn from the seed within
a relative 1e-3 of the nominal 80, so no (params, degrees, grid) triple
repeats within one process, not even between a case and the sweep member
with the same B: a CLI user runs one process per command, and an
in-process memo must not show a gain that user would never see.  The
coefficients themselves are left exact, because the cost of the exact
rational envelope arithmetic depends on the bit length of the inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

# The test suite's five reference sets: (A+, A-, B, t+, t-), (n+, n-).
REFERENCE = {
    "classical": ((1.0, 1.0, 0.0, 1.0, 1.0), (1, 0)),
    "bpos": ((1.0, 1.0, 0.5, 1.0, 1.0), (1, 1)),
    "bneg": ((1.0, 1.0, -0.5, 1.0, 1.0), (1, 1)),
    "asym": ((2.0, 1.0, 0.8, 1.0, 0.7), (1, 1)),
    "overshoot": ((1.0, 4.0, 1.5, 1.0, 1.0), (1, 1)),
}

# The admissible set near the hypothesis boundary: (A+, A-, t+, t-)
# anisotropies, B / sqrt(A+ A-) ratios and winding pairs; 3 * 6 * 6 = 108.
ANISOTROPY = ((1.0, 1.0, 1.0, 1.0), (2.0, 1.0, 1.0, 0.7), (1.0, 4.0, 1.0, 1.0))
B_RATIOS = (0.5, 0.9, 0.99, -0.5, -0.9, -0.99)
WINDINGS = ((1, 1), (1, 0), (0, 1), (2, 1), (5, 1), (3, 3))

# default-cli runs each reference set this many times per pass, each on its
# own grid, so that one pass gives enough case samples for a tail latency
# next to its one sweep.
DEFAULT_REPEATS = 3

R_MAX = 80.0
R_JITTER = 1e-3
SWEEP = {"b_start": -0.9, "b_stop": 0.9, "b_step": 0.1}

# BENCHMARK.json gates only default-cli and fine-solve.  admissible-coarse
# runs by hand: on a shared 2-core host default-cli needs runs of about a
# minute to be steady, and the benchmark's total time limit leaves no room
# for a third workload of that length.
WORKLOADS = ("default-cli", "fine-solve", "admissible-coarse")

# The tail percentile of each workload's case latencies: the highest one
# that leaves at least ten samples beyond it in the fewest cases a run
# makes.  Fixing it per workload keeps a run that fits one more pass from
# reporting a different percentile.
TAIL_QUANTILE = {"default-cli": Fraction(2, 3), "fine-solve": Fraction(9, 10),
                 "admissible-coarse": Fraction(9, 10)}
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Case:
    """One solve, followed by a verify when `verify` is set."""

    name: str
    params: tuple
    degrees: tuple
    N: int
    R_max: float
    verify: bool


@dataclass(frozen=True)
class Sweep:
    """One `sweep` command over SWEEP's B range around `params`."""

    name: str
    params: tuple
    degrees: tuple
    N: int
    R_max: float


def sweep_b_values() -> list:
    """The B values a sweep over SWEEP must report, in order."""
    n = round((SWEEP["b_stop"] - SWEEP["b_start"]) / SWEEP["b_step"])
    return [round(SWEEP["b_start"] + k * SWEEP["b_step"], 12)
            for k in range(n + 1)]


class InputSource:
    """Draws the passes of one workload from a seeded generator."""

    def __init__(self, workload: str, rng):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = rng
        self._seen = set()

    def _r_max(self):
        """A far radius no earlier op of this process has used."""
        while True:
            r_max = R_MAX * (1.0 + self.rng.uniform(-R_JITTER, R_JITTER))
            if r_max not in self._seen:
                self._seen.add(r_max)
                return r_max

    def _case(self, name, params, degrees, N, verify):
        return Case(name, params, degrees, N, self._r_max(), verify)

    def next_pass(self) -> list:
        if self.workload == "default-cli":
            ops = [self._case(name, p, d, 4000, True)
                   for _ in range(DEFAULT_REPEATS)
                   for name, (p, d) in REFERENCE.items()]
            p, d = REFERENCE["bpos"]
            ops.append(Sweep("bpos", p, d, 4000, self._r_max()))
            return ops
        if self.workload == "fine-solve":
            return [self._case(f"{name}@{N}", *REFERENCE[name], N, False)
                    for N in (16000, 64000) for name in ("bpos", "asym")]
        cells = list(itertools.product(ANISOTROPY, B_RATIOS, WINDINGS))
        self.rng.shuffle(cells)
        ops = []
        for (ap, am, tp, tm), ratio, degrees in cells:
            params = (ap, am, ratio * math.sqrt(ap * am), tp, tm)
            name = f"A=({ap:g},{am:g}),t=({tp:g},{tm:g}),b={ratio:+g},n={degrees}"
            ops.append(self._case(name, params, degrees, 1000, True))
        return ops

    def cases_per_pass(self) -> int:
        return {"default-cli": DEFAULT_REPEATS * len(REFERENCE),
                "fine-solve": 4,
                "admissible-coarse": len(ANISOTROPY) * len(B_RATIOS)
                * len(WINDINGS)}[self.workload]

    def min_passes(self) -> int:
        """Passes that give the tail percentile TAIL_BEYOND samples."""
        cases = math.ceil(TAIL_BEYOND / (1 - TAIL_QUANTILE[self.workload]))
        return math.ceil(cases / self.cases_per_pass())


def run_config(op, **extra) -> dict:
    """The CLI config file for one op."""
    keys = ("A_plus", "A_minus", "B", "t_plus", "t_minus")
    return {"version": 1,
            "params": dict(zip(keys, op.params)),
            "degrees": {"n_plus": op.degrees[0], "n_minus": op.degrees[1]},
            "grid": {"N": op.N, "R_max": op.R_max, "kind": "uniform"},
            "solve": {"far_field": "robin"},
            **extra}
