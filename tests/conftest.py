import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import glvortex as gv  # noqa: E402
from glvortex.cli import main  # noqa: E402

# the five reference parameter sets exercised throughout the suite
CASES = {
    "classical": ((1.0, 1.0, 0.0, 1.0, 1.0), (1, 0)),
    "bpos": ((1.0, 1.0, 0.5, 1.0, 1.0), (1, 1)),
    "bneg": ((1.0, 1.0, -0.5, 1.0, 1.0), (1, 1)),
    "asym": ((2.0, 1.0, 0.8, 1.0, 0.7), (1, 1)),
    "overshoot": ((1.0, 4.0, 1.5, 1.0, 1.0), (1, 1)),
}


def case_inputs(name):
    p, d = CASES[name]
    return gv.CouplingParams(*p), gv.DegreePair(*d)


def run_cli(capsys, *argv, warns=False):
    """Run one command in process: (exit code, stdout, stderr).  Inside
    cli.main a warning is a stderr JSON line, not an exception, so unless
    the caller expects one, a warning line fails the test, as a stray
    warning fails the rest of the suite (pyproject's filterwarnings)."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    if not warns:
        assert not [line for line in err.splitlines()
                    if "warning" in json.loads(line)], err
    return code, out, err


def package_certifies(params, degrees, u, R):
    """The package's exact decision at u = delta R^6 and radius R, on the
    tables select_envelope builds."""
    *_, tables = gv.asymptotics._envelope_tables(params, degrees)
    every = [t for pair in tables.values() for t in pair]
    return gv.asymptotics._certified(every, Fraction(u), Fraction(R))


@pytest.fixture(scope="session")
def default_grid():
    return gv.build_grid(80.0, 4000)


@pytest.fixture(scope="session")
def coarse_grid():
    return gv.build_grid(40.0, 1200)


@pytest.fixture(scope="session")
def reference_profiles(default_grid):
    """The five cases solved once on the default grid (Robin far field)."""
    out = {}
    for name in CASES:
        params, degrees = case_inputs(name)
        out[name] = gv.continuation_solve(params, degrees, default_grid)
    return out
