"""Tolerance policy for the floating backend.

All zero tests share one band, tau = null_band * (spectral radius of the
parent pencil), with no absolute floor, so scaling a form or a constraint
moves no count.  Restrictions of the parent inherit its band: by Cauchy
interlacing their spectra lie inside the parent's, and their rounding error
scales with the parent.  A direction u is isotropic when |S(u, u)| <= tau *
<u, u>.  Values close to the band edge are flagged as marginal instead of
silently classified.  The exact backend never consults these numbers.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    # relative half-width of the zero band for eigenvalues and evaluations
    null_band: float = 1e-9
    # range-cosine cutoff: f has a dual when |Q^T f| / |f| <= residual for
    # a Euclidean orthonormal basis Q of the zero band's eigenvectors
    residual: float = 1e-8
    # relative pivot cutoff for rank decisions (QR with column pivoting)
    rank: float = 1e-10
    # relative asymmetry allowed before input is rejected
    symmetry: float = 1e-12
    # values within this factor of a decision edge are marginal
    marginal_factor: float = 10.0

    def with_overrides(self, **kwargs) -> "Tolerances":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


DEFAULT = Tolerances()


def spectral_radius(eigenvalues: np.ndarray) -> float:
    """Largest |eigenvalue|; 0 for an empty spectrum."""
    return float(np.max(np.abs(eigenvalues), initial=0.0))


def zero_band(scale: float, tol: Tolerances) -> float:
    """Half-width of the zero band for a parent of spectral radius scale."""
    return tol.null_band * scale


def near_band_edge(values, tau: float, tol: Tolerances) -> np.ndarray:
    """True where a value's distance to the nearest band edge (+tau or
    -tau) is at most marginal_factor * tau; every value inside the band is
    therefore marginal as well, since a true zero cannot be told apart from
    a small nonzero at working precision."""
    return np.abs(np.abs(values) - tau) <= tol.marginal_factor * tau


def classify_spectrum(eigenvalues: np.ndarray, tol: Tolerances,
                      scale: float | None = None) -> tuple[int, int, int, bool]:
    """Counts (negative, zero, positive) plus a marginal flag, raised when
    some eigenvalue is ``near_band_edge``.  ``scale`` is the parent's
    spectral radius, by default the spectrum's own.
    """
    w = np.asarray(eigenvalues, dtype=float)
    tau = zero_band(spectral_radius(w) if scale is None else scale, tol)
    neg = int(np.sum(w < -tau))
    zero = int(np.sum(np.abs(w) <= tau))
    pos = int(w.size) - neg - zero
    marginal = bool(np.any(near_band_edge(w, tau, tol)))
    return neg, zero, pos, marginal
