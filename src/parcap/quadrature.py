"""Every quadrature rule of the kernel and operator modules.

Integrands are vectorized: ``f(x)`` receives an ndarray of abscissae and
must return an ndarray of the same shape.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureError",
    "adaptive_gauss_kronrod",
    "gauss_legendre",
    "panels",
    "panel_rule",
    "tensor_rule",
    "geometric_edges",
    "gauss_hermite_prob",
]


class QuadratureError(RuntimeError):
    """Raised when an adaptive rule fails to converge."""


# 15-point Kronrod abscissae (positive half) and weights, with the embedded
# 7-point Gauss weights on the odd-indexed nodes.  Standard QUADPACK dqk15
# constants.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# full symmetric node set on [-1, 1]
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WG_FULL = np.zeros_like(_WK)
_WG_FULL[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])


def _gk15(f, a, b):
    """Gauss-Kronrod 15(7) estimate and error on one interval."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    y = f(mid + half * _NODES)
    k = half * float(np.dot(_WK, y))
    g = half * float(np.dot(_WG_FULL, y))
    return k, abs(k - g)


GK_ABS_TOL = 1e-13     # absolute error floor of the adaptive rule
GK_MAX_SUBDIV = 2000   # bisections before the adaptive rule gives up


def adaptive_gauss_kronrod(f, a, b, rel_tol=1e-9):
    """Globally adaptive GK15 on [a, b]: bisect the worst interval until the
    summed error estimate meets max(GK_ABS_TOL, rel_tol*|result|).
    """
    if not b > a:
        return 0.0
    val, err = _gk15(f, a, b)
    intervals = [(err, a, b, val)]
    for _ in range(GK_MAX_SUBDIV):
        total = sum(iv[3] for iv in intervals)
        total_err = sum(iv[0] for iv in intervals)
        if total_err <= max(GK_ABS_TOL, rel_tol * abs(total)):
            return total
        intervals.sort(key=lambda iv: iv[0])
        _, lo, hi, _ = intervals.pop()
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # bisection at rounding precision: accept what we have
            return total
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        intervals.append((e1, lo, mid, v1))
        intervals.append((e2, mid, hi, v2))
    raise QuadratureError(
        f"adaptive quadrature did not converge after {GK_MAX_SUBDIV} subdivisions"
    )


@lru_cache(maxsize=64)
def gauss_legendre(order):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(order)


def panels(edges, order):
    """Gauss-Legendre nodes/weights on consecutive panels along the last axis.

    ``edges`` has shape (..., P + 1); both results have shape (..., P, order).
    """
    edges = np.asarray(edges, dtype=float)
    x, w = gauss_legendre(order)
    half = 0.5 * np.diff(edges, axis=-1)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    return mid[..., None] + half[..., None] * x, half[..., None] * w


def panel_rule(edges, order):
    """Flat (nodes, weights) of :func:`panels` on one increasing 1-D ``edges``."""
    nodes, weights = panels(edges, order)
    return nodes.ravel(), weights.ravel()


def tensor_rule(x, w, d):
    """d-fold tensor product of the 1-D rule (x, w): an (n^d, d) node mesh,
    last axis fastest, and its (n^d,) product weights."""
    mesh = np.stack(np.meshgrid(*[x] * d, indexing="ij"), axis=-1).reshape(-1, d)
    wmesh = w
    for _ in range(d - 1):
        wmesh = np.outer(wmesh, w).ravel()
    return mesh, wmesh


def geometric_edges(a, b, n_panels, ratio=0.6):
    """Panel edges on [a, b] clustered geometrically toward ``a``.

    Panel widths grow by 1/ratio moving away from ``a``, so integrable
    endpoint behaviour at ``a`` is resolved without adaptivity.
    """
    if n_panels < 1:
        raise ValueError("n_panels must be >= 1")
    widths = ratio ** np.arange(n_panels - 1, -1, -1.0)
    edges = np.concatenate([[0.0], np.cumsum(widths) / widths.sum()])
    return a + (b - a) * edges


@lru_cache(maxsize=16)
def gauss_hermite_prob(order):
    """Nodes/weights for the standard normal expectation.

    Returns (y, w) with sum(w * f(y)) ~= E[f(Z)], Z ~ N(0, 1).
    """
    x, w = np.polynomial.hermite.hermgauss(order)
    return x * np.sqrt(2.0), w / np.sqrt(np.pi)
