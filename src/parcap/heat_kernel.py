"""Gaussian transition density and the closed-form reductions built on it.

The density is computed in log space and exponentiated; log values below
``LOG_FLOOR`` return exactly 0 so that deep-tail ratios never produce NaN.
Nonpositive times give density 0 by convention, so callers never branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpaceTimePoint",
    "heat_density",
    "log_heat_density",
    "bridge_weight",
    "gaussian_product_reduce",
]

LOG_FLOOR = -700.0  # log of the smallest value (about 1e-304) not read as 0


@dataclass(frozen=True)
class SpaceTimePoint:
    """A point (t, x) with strictly positive time; x stored as a tuple."""

    t: float
    x: tuple

    def __init__(self, t, x):
        t = float(t)
        x = tuple(float(c) for c in np.atleast_1d(x))
        if not math.isfinite(t) or not all(math.isfinite(c) for c in x):
            raise ValueError("non-finite space-time point")
        if t <= 0.0:
            raise ValueError(f"time must be strictly positive, got {t}")
        if len(x) < 1:
            raise ValueError("spatial dimension must be >= 1")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)

    @property
    def d(self):
        return len(self.x)

    @property
    def x_arr(self):
        return np.asarray(self.x, dtype=float)


def log_heat_density(t, sq_norm, d):
    """log p(t, x) given |x|^2, vectorized over (t, sq_norm); -inf for t <= 0."""
    t = np.asarray(t, dtype=float)
    sq_norm = np.asarray(sq_norm, dtype=float)
    out = np.full(np.broadcast(t, sq_norm).shape, -np.inf)
    pos = t > 0.0
    tp = np.broadcast_to(t, out.shape)[pos]
    sp = np.broadcast_to(sq_norm, out.shape)[pos]
    out[pos] = -0.5 * d * np.log(2.0 * np.pi * tp) - sp / (2.0 * tp)
    return out


def _sq_norms(a):
    """Squared norm of each row of an (m, d) array, summed column by column.

    Bit for bit np.sum(a * a, axis=1), whose few terms numpy also adds in
    order, and its square root is np.linalg.norm(a, axis=1); a numpy
    reduction along a short axis costs several times the column sums.
    """
    out = a[:, 0] * a[:, 0]
    for i in range(1, a.shape[1]):
        out += a[:, i] * a[:, i]
    return out


def _exp_floor(log_vals):
    log_vals = np.asarray(log_vals, dtype=float)
    out = np.zeros(log_vals.shape)
    ok = log_vals > LOG_FLOOR
    out[ok] = np.exp(log_vals[ok])
    return out


def heat_density(t, x):
    """Transition density p(t, x) = (2 pi t)^{-d/2} exp(-|x|^2 / 2t).

    Returns 0 for t <= 0; rejects non-finite inputs.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not (math.isfinite(t) and np.all(np.isfinite(x))):
        raise ValueError("non-finite time or spatial coordinate")
    return float(_exp_floor(log_heat_density(t, x @ x, x.size)))


def bridge_weight(target, s, y):
    """Bridge density ratio p(t-s, x-y) / p(t, x) for target (t, x), a batch
    of one of :func:`bridge_weight_batch`; 0 for s >= t."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != target.d:
        raise ValueError("dimension mismatch")
    return float(bridge_weight_batch([target.t], [target.x], s, y, target.d)[0])


def bridge_weight_batch(times, coords, s, y, d):
    """Vectorized bridge weights over atoms (times, coords) at path points.

    ``s`` has shape (...,) and ``y`` shape (..., d); atom arrays have shape
    (n,). Returns an array of shape (n, ...).
    """
    times = np.asarray(times, dtype=float)
    coords = np.asarray(coords, dtype=float)
    dt = times.reshape(-1, *([1] * np.ndim(s))) - np.asarray(s)[None]
    diff = coords.reshape(-1, *([1] * np.ndim(s)), d) - np.asarray(y)[None]
    sq = np.sum(diff * diff, axis=-1)
    log_num = log_heat_density(dt, sq, d)
    log_den = log_heat_density(times, np.sum(coords * coords, axis=1), d)
    return _exp_floor(log_num - log_den.reshape(-1, *([1] * np.ndim(s))))


def gaussian_product_reduce(t, x, t2, x2, s):
    """Collapse p(t-s, x-y) * p(t2-s, x2-y) into scale * p(variance, y - mean).

    Requires 0 < s < min(t, t2). Returns (variance, mean, scale) with
        variance = (t-s)(t2-s) / (t+t2-2s),
        mean     = ((t2-s) x + (t-s) x2) / (t+t2-2s),
        scale    = p(t+t2-2s, x-x2),
    an identity in y.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    if not 0.0 < s < min(t, t2):
        raise ValueError("need 0 < s < min(t, t2)")
    a = t - s
    b = t2 - s
    tot = a + b
    variance = a * b / tot
    mean = (b * x + a * x2) / tot
    scale = heat_density(tot, x - x2)
    return variance, mean, scale
