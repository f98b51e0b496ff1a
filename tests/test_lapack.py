import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack as scipy_lapack

from glvortex import lapack

SRC = Path(lapack.__file__).resolve().parents[1]


def test_a_missing_extension_raises_an_import_error_naming_it(tmp_path):
    # a scipy package without linalg/_flapack shadows the installed one
    (tmp_path / "scipy" / "linalg").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    code = (f"import sys; sys.path[:0] = [{str(tmp_path)!r}, {str(SRC)!r}]; "
            "import glvortex.lapack")
    done = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == (
        "ImportError: LAPACK extension scipy.linalg._flapack not found")


def _same_bits(ours, theirs):
    assert len(ours) == len(theirs)
    for a, b in zip(ours, theirs):
        a, b = np.asarray(a), np.asarray(b)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape,
                                                   b.tobytes())


def _both(name, *args, **flags):
    """One routine from the package and from scipy.linalg.lapack, each on
    its own copies of the inputs (the overwrite flags clobber them)."""
    def call(routine):
        return routine(*(np.array(a, order="F") if isinstance(a, np.ndarray)
                         else a for a in args), **flags)
    ours, theirs = call(getattr(lapack, name)), call(getattr(scipy_lapack,
                                                             name))
    _same_bits(ours, theirs)
    return ours


@pytest.mark.parametrize("seed", range(3))
def test_routines_match_scipy_bit_for_bit(seed):
    # the flags are the ones solver and diagnostics pass
    rng = np.random.default_rng(seed)
    n = 200 + 37 * seed
    # dgbtrf/dgbtrs on a (2, 2) band with room for fill-in in rows 0..1
    ab = np.zeros((7, n), order="F")
    ab[2:] = rng.standard_normal((5, n))
    lu, ipiv, info = _both("dgbtrf", ab, 2, 2, overwrite_ab=1)
    assert info == 0
    _both("dgbtrs", lu, 2, 2, rng.standard_normal(n), ipiv, overwrite_b=1)
    # dgttrf/dgttrs on a tridiagonal system
    dl, d, du = (rng.standard_normal(m) for m in (n - 1, n, n - 1))
    dl, d, du, du2, piv, info = _both("dgttrf", dl, d, du, overwrite_dl=1,
                                      overwrite_d=1, overwrite_du=1)
    assert info == 0
    _both("dgttrs", dl, d, du, du2, piv, rng.standard_normal(n),
          overwrite_b=1)
    # dpbtrf/dpbtrs on an upper band (kd = 2), diagonally dominant, then at
    # a shift beyond its smallest eigenvalue, where the factorization fails
    band = rng.uniform(-1.0, 1.0, (3, n))
    band[2] = 5.0 + rng.uniform(0.0, 1.0, n)
    band[0, :2] = band[1, :1] = 0.0
    c, info = _both("dpbtrf", band, lower=0, overwrite_ab=1)
    assert info == 0
    _both("dpbtrs", c, rng.standard_normal(n), overwrite_b=1)
    shifted = band.copy()
    shifted[2] -= 6.5
    _, info = _both("dpbtrf", shifted, lower=0, overwrite_ab=1)
    assert info > 0
