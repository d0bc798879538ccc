"""The compiled routines sngs takes from scipy, loaded by file path.

sngs calls four LAPACK routines (dgbsv, dpbtrf, dpbtrs, dptsv) and SuperLU's
gstrf, and nothing else of scipy.  Importing them through `scipy.linalg` or
`scipy.sparse.linalg` runs those packages' __init__ and scipy's array-API
layer: most of a short job's wall time and about 29 MB of its memory.  Each
of the two extension modules that hold them, scipy/linalg/_flapack and
scipy/sparse/linalg/_dsolve/_superlu, is loaded here from its file instead,
under a name in this module's namespace, so no `scipy` module is imported.
The file layout is scipy's private one: when a file is not found or does not
load, the module comes from scipy's own import of it, the same compiled code.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os


def _extension(package: str, name: str):
    """The compiled module scipy.<package>.<name>, loaded from its file, or
    imported through scipy when that fails."""
    try:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, *package.split("."), name + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(
                    f"{__name__}.{name}", path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                return module
    except (ImportError, OSError, AttributeError, TypeError):
        pass
    return importlib.import_module(f"scipy.{package}.{name}")


_flapack = _extension("linalg", "_flapack")
_superlu = _extension("sparse.linalg._dsolve", "_superlu")

dgbsv = _flapack.dgbsv     # banded LU solve: the Newton step
dpbtrf = _flapack.dpbtrf   # banded Cholesky: the warm start's S + lam W
dpbtrs = _flapack.dpbtrs   # its solves
dptsv = _flapack.dptsv     # tridiagonal SPD solve: a pair form's T block
gstrf = _superlu.gstrf     # SuperLU's factorization of a CSC matrix
