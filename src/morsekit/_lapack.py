"""The compiled LAPACK and BLAS routines morsekit calls, loaded without
running the ``scipy.linalg`` package.

morsekit calls only routines of scipy's f2py extension modules
``scipy.linalg._flapack`` and ``scipy.linalg._fblas``.  Importing them by
name would first run ``scipy.linalg/__init__``, about half the import
time of ``morsekit.cli``, which also pulls in numpy.testing, unittest and
numpy.f2py.  So the two files are found from scipy's import spec, which
runs no scipy code, and loaded under their real module names: a later
``import scipy.linalg`` reuses them, and they are reused when scipy.linalg
was imported first.  ``_flapack`` and ``_fblas`` are private scipy names;
a missing file raises ImportError, and nothing else is tried.
"""
from __future__ import annotations

import importlib.util
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path


def _load(name: str):
    """The module ``scipy.linalg.<name>``, loaded from its extension file
    unless it is already in ``sys.modules``."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    package = importlib.util.find_spec("scipy")
    if package is None:
        raise ImportError("morsekit needs scipy", name="scipy")
    files = [Path(package.submodule_search_locations[0], "linalg", name + suffix)
             for suffix in EXTENSION_SUFFIXES]
    path = next((p for p in files if p.is_file()), None)
    if path is None:
        raise ImportError(f"no compiled module {files[0]}", name=full, path=str(files[0]))
    spec = importlib.util.spec_from_file_location(full, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[full] = module
    return module


_flapack = _load("_flapack")
dsyevr, dsyevr_lwork, dsygvd = _flapack.dsyevr, _flapack.dsyevr_lwork, _flapack.dsygvd
dgeqp3, dgeqrf, dorgqr = _flapack.dgeqp3, _flapack.dgeqrf, _flapack.dorgqr
dstebz, dgtsv, dpttrf, dpotrf = _flapack.dstebz, _flapack.dgtsv, _flapack.dpttrf, _flapack.dpotrf
dnrm2 = _load("_fblas").dnrm2
