"""The compiled routines sngs calls: four LAPACK routines and SuperLU's gstrf.

dgbsv, dpbtrf, dpbtrs and dptsv are called through ctypes from the ILP64
OpenBLAS that numpy bundles (under numpy.libs/ or numpy/.dylibs/, symbols
`scipy_<name>_64_` or `<name>_64_`) and that `import numpy` has already
mapped, so a solve maps no library of its own.  Each routine has its argtypes
set, so an array of the wrong kind raises ctypes.ArgumentError instead of
crashing, and each wrapper checks its shapes; it takes the arguments and
returns the tuple of scipy's f2py wrapper of the same name, for the
arguments sngs passes.  Where numpy bundles no such library, or it lacks a
symbol, the four come from scipy's _flapack.

Importing scipy's compiled modules through `scipy.linalg` or
`scipy.sparse.linalg` runs those packages' __init__ and scipy's array-API
layer: most of a short job's wall time and about 29 MB of its memory.  So
_flapack and _superlu are loaded from their files (`_extension`) under names
in this module's namespace, and no `scipy` module is imported.  The file
layout is scipy's private one: when a file is not found or does not load,
the module comes from scipy's own import of it, the same compiled code.
_superlu, with the scipy OpenBLAS it links, is loaded on the first gstrf
call, so only `spectrum` maps it.
"""

from __future__ import annotations

import ctypes
import glob
import importlib
import importlib.machinery
import importlib.util
import os

import numpy as np


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


def _openblas():
    """numpy's bundled OpenBLAS, or None when numpy bundles none."""
    root = os.path.dirname(np.__file__)
    for pattern in (os.path.join(root + ".libs", "*openblas*"),
                    os.path.join(root, ".dylibs", "*openblas*")):
        for path in sorted(glob.glob(pattern)):
            try:
                return ctypes.CDLL(path)
            except OSError:
                pass
    return None


_INT = ctypes.POINTER(ctypes.c_int64)   # a Fortran integer, by reference
_REAL = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS")
_PIVOTS = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
_CHAR = ctypes.c_char_p
_CHAR_LEN = ctypes.c_size_t             # gfortran's hidden length of a CHAR


def _routine(lib, name: str, *argtypes):
    """The ILP64 LAPACK routine `name` of lib, its argtypes set;
    AttributeError when lib has it under neither spelling."""
    for symbol in (f"scipy_{name}_64_", f"{name}_64_"):
        if hasattr(lib, symbol):
            routine = getattr(lib, symbol)
            routine.argtypes, routine.restype = argtypes, None
            return routine
    raise AttributeError(f"{name}: no ILP64 symbol")


def _int(value: int):
    return ctypes.byref(ctypes.c_int64(value))


def _fortran(a, overwrite: bool = False) -> np.ndarray:
    """a itself when it may be overwritten and already is a writeable
    Fortran-ordered float64 array, else a Fortran-ordered float64 copy: f2py's
    intent(in, out, copy)."""
    if (overwrite and isinstance(a, np.ndarray) and a.dtype == np.float64
            and a.flags.f_contiguous and a.flags.writeable):
        return a
    return np.array(a, dtype=np.float64, order="F")


def _columns(b: np.ndarray) -> int:
    return 1 if b.ndim == 1 else b.shape[1]


def _require(ok: bool, routine: str) -> None:
    if not ok:
        raise ValueError(f"{routine}: arrays of the wrong shape")


class _ILP64Lapack:
    """dgbsv, dpbtrf, dpbtrs and dptsv of an ILP64 LAPACK, called and
    returning as scipy's f2py wrappers do (upper storage for the Cholesky
    pair); AttributeError when lib lacks one of them."""

    def __init__(self, lib):
        self._gbsv = _routine(lib, "dgbsv", _INT, _INT, _INT, _INT, _REAL,
                              _INT, _PIVOTS, _REAL, _INT, _INT)
        self._pbtrf = _routine(lib, "dpbtrf", _CHAR, _INT, _INT, _REAL, _INT,
                               _INT, _CHAR_LEN)
        self._pbtrs = _routine(lib, "dpbtrs", _CHAR, _INT, _INT, _INT, _REAL,
                               _INT, _REAL, _INT, _INT, _CHAR_LEN)
        self._ptsv = _routine(lib, "dptsv", _INT, _INT, _REAL, _REAL, _REAL,
                              _INT, _INT)

    def dgbsv(self, kl, ku, ab, b, overwrite_ab=False, overwrite_b=False):
        """(lu, piv, x, info) of the banded system ab x = b, piv 0-based."""
        ab, b = _fortran(ab, overwrite_ab), _fortran(b, overwrite_b)
        n = ab.shape[-1]
        _require(kl >= 0 and ku >= 0 and ab.ndim == 2
                 and ab.shape[0] == 2 * kl + ku + 1 and b.shape[0] == n,
                 "dgbsv")
        piv, info = np.empty(n, dtype=np.int64), ctypes.c_int64()
        self._gbsv(_int(n), _int(kl), _int(ku), _int(_columns(b)), ab,
                   _int(ab.shape[0]), piv, b, _int(n), ctypes.byref(info))
        piv -= 1
        return ab, piv, b, info.value

    def dpbtrf(self, ab):
        """(c, info): the upper banded Cholesky factor of ab."""
        c, info = _fortran(ab), ctypes.c_int64()
        _require(c.ndim == 2, "dpbtrf")
        self._pbtrf(b"U", _int(c.shape[1]), _int(c.shape[0] - 1), c,
                    _int(c.shape[0]), ctypes.byref(info), 1)
        return c, info.value

    def dpbtrs(self, ab, b, overwrite_b=False):
        """(x, info) of c^T c x = b, ab = c the upper factor dpbtrf returns."""
        ab = np.asfortranarray(ab, dtype=np.float64)   # read, not written
        b = _fortran(b, overwrite_b)
        n, info = ab.shape[-1], ctypes.c_int64()
        _require(ab.ndim == 2 and b.shape[0] == n, "dpbtrs")
        self._pbtrs(b"U", _int(n), _int(ab.shape[0] - 1), _int(_columns(b)),
                    ab, _int(ab.shape[0]), b, _int(n), ctypes.byref(info), 1)
        return b, info.value

    def dptsv(self, d, e, b):
        """(d, e, x, info) of the tridiagonal SPD system (d, e) x = b, on
        copies of d and e, which may be views of a form's bands."""
        d, e, b = _fortran(d), _fortran(e), _fortran(b)
        n, info = len(d), ctypes.c_int64()
        _require(d.ndim == e.ndim == 1 and len(e) == n - 1
                 and b.shape[0] == n, "dptsv")
        self._ptsv(_int(n), _int(_columns(b)), d, e, b, _int(n),
                   ctypes.byref(info))
        return d, e, b, info.value


def _lapack():
    """The four routines from numpy's OpenBLAS, or else scipy's _flapack."""
    lib = _openblas()
    if lib is not None:
        try:
            return _ILP64Lapack(lib)
        except AttributeError:
            pass
    return _extension("linalg", "_flapack")


_routines = _lapack()
dgbsv = _routines.dgbsv     # banded LU solve: the Newton step
dpbtrf = _routines.dpbtrf   # banded Cholesky: the warm start's S + lam W
dpbtrs = _routines.dpbtrs   # its solves
dptsv = _routines.dptsv     # tridiagonal SPD solve: a pair form's T block

_superlu = None


def gstrf(*args, **kwargs):
    """SuperLU's factorization of a CSC matrix (scipy's _superlu.gstrf); its
    module is loaded on the first call."""
    global _superlu
    if _superlu is None:
        _superlu = _extension("sparse.linalg._dsolve", "_superlu")
    return _superlu.gstrf(*args, **kwargs)
