"""Tolerance policy for the floating backend.

Every floating count goes through one rule, ``classify_counts``: with
tau = null_band * (spectral radius of the parent pencil), the eigenvalues
below -tau are negative, those in the band zero, and any within
(1 + marginal_factor) * tau of zero flags the counts marginal rather than
trusted.  The counts are asked at -+(1 + marginal_factor) * tau first,
and at -+tau only when that marginal window holds an eigenvalue.  With no
absolute floor, scaling a form or a constraint moves no count.
Restrictions of the parent inherit its band: by
Cauchy interlacing their spectra lie inside the parent's, and their
rounding error scales with the parent.  The exact backend never consults
these numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError


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

    def __post_init__(self):
        for name in ("null_band", "residual", "rank", "symmetry"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValidationError(f"{name} must be positive and finite, got {value!r}")
        mf = self.marginal_factor
        if not mf >= 1:
            raise ValidationError(f"marginal_factor must be at least 1, got {mf!r}")

    def with_overrides(self, **kwargs) -> "Tolerances":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


DEFAULT = Tolerances()


def spectral_radius(eigenvalues: np.ndarray) -> float:
    """Largest |eigenvalue|; 0 for an empty spectrum."""
    return float(np.max(np.abs(eigenvalues), initial=0.0))


def zero_band(scale: float, tol: Tolerances) -> float:
    """Half-width of the zero band for a parent of spectral radius scale."""
    return tol.null_band * scale


def classify_counts(below, dim: int, scale: float,
                    tol: Tolerances) -> tuple[int, int, int, bool]:
    """(negative, zero, positive, marginal) of dim values whose count below
    s is ``below(s)``, tau the ``zero_band`` of scale.  The counts at
    -+(1 + marginal_factor) tau come first: when they agree the window
    between them is empty, and for a count monotone in s those at -+tau
    agree with them.  Only an occupied window, which is marginal, is
    counted at -+tau as well.  A nonempty spectrum of scale 0 is all zero,
    and marginal."""
    if scale == 0.0 or dim == 0:
        return 0, dim, 0, dim > 0
    tau = zero_band(scale, tol)
    edge = (1.0 + tol.marginal_factor) * tau
    low, high = below(-edge), below(edge)
    if high == low:
        return low, 0, dim - low, False
    neg, up = below(-tau), below(tau)
    return neg, up - neg, dim - up, high > low


def classify_spectrum(eigenvalues, tol: Tolerances,
                      scale: float | None = None) -> tuple[int, int, int, bool]:
    """``classify_counts`` of a list of values, counted closed at positive
    shifts, so the zero band is [-tau, tau].  ``scale`` is the parent's
    spectral radius, by default the values' own."""
    w = np.asarray(eigenvalues, dtype=float)
    return classify_counts(lambda s: int(np.count_nonzero(w < s if s < 0 else w <= s)),
                           w.size, spectral_radius(w) if scale is None else scale, tol)
