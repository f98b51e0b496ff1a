"""The six LAPACK routines glvortex calls, from scipy's compiled `_flapack`.

Importing `scipy.linalg.lapack`, or even `scipy.linalg._flapack`, runs
`scipy/linalg/__init__`: about 0.25 s of each fresh CLI process on a 2-core
VM, mostly numpy.f2py, numpy.ma and numpy.testing via scipy's array API
layer.  Loaded from its file spec, the same extension takes about 5 ms.
"""

from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec
from os.path import join

_scipy = find_spec("scipy")     # locates the package without importing it
_spec = _scipy and PathFinder.find_spec("_flapack", [
    join(d, "linalg") for d in _scipy.submodule_search_locations])
if _spec is None:
    raise ImportError("LAPACK extension scipy.linalg._flapack not found")
_flapack = module_from_spec(_spec)
_spec.loader.exec_module(_flapack)
dgbtrf, dgbtrs, dpbtrf, dpbtrs, dpttrf, dpttrs = map(vars(_flapack).get, (
    "dgbtrf", "dgbtrs", "dpbtrf", "dpbtrs", "dpttrf", "dpttrs"))
