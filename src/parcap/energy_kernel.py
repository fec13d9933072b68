"""Mutual-energy kernels and the quadratic energy of discrete measures.

Three kernel kinds are shipped:

* parabolic  -- heat-kernel-ratio pair energy on space-time points,
  K(z, z') = int_0^{t^t'} ds p(t+t'-2s, x-x') p(s+sig(s), m(s)) / (p(t,x) p(t',x')),
  the 1-D reduction of the defining (1+d)-dimensional double integral;
* cap_prime  -- exponentially damped variant,
  K'(z, z') = 1/2 int_{|t-t'|}^inf du p(u, x-x') e^{-u/2};
* newtonian  -- classical h_{d-2}(|x-x'|) with the log kernel at d = 2.

Diagonal values are +inf for d >= 2 (non-integrable singularity); +inf is an
explicit sentinel, never an overflow artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .heat_kernel import (
    LOG_FLOOR,
    SpaceTimePoint,
    bridge_weight_batch,
    heat_density,
    log_heat_density,
    _exp_floor,
)
from .quadrature import (
    adaptive_gauss_kronrod,
    gauss_legendre,
    geometric_edges,
    panel_rule,
    tensor_rule,
)

__all__ = [
    "KernelKind",
    "PARABOLIC",
    "CAP_PRIME",
    "newtonian",
    "DiscreteMeasure",
    "mutual_kernel",
    "mutual_kernel_bruteforce",
    "reduced_log_coefs",
    "reduced_pair_sum",
    "cap_prime_kernel",
    "cap_prime_bruteforce",
    "newtonian_kernel",
    "energy",
    "energy_mc_paths",
]

MUTUAL_REL_TOL = 1e-9      # relative tolerances of the adaptive mutual_kernel
CAP_PRIME_REL_TOL = 1e-10  # and cap_prime_kernel
# cap_prime_bruteforce: s panel nodes, y nodes per axis, s range
CP_ORACLE_N_S, CP_ORACLE_N_Y, CP_ORACLE_SPAN = 240, 64, 160.0
MC_PATH_CHUNK = 256        # Brownian paths per block of energy_mc_paths


@dataclass(frozen=True)
class KernelKind:
    """A kernel by name, the one place that maps a tag to its kernel. ``d`` is
    None for the space-time kernels, so ``KernelKind(tag, region.d)`` fits."""

    tag: str
    d: int | None = None

    def __post_init__(self):
        if self.tag not in ("parabolic", "cap_prime", "newtonian"):
            raise ValueError(f"unknown kernel kind {self.tag!r}")
        if self.tag != "newtonian":
            object.__setattr__(self, "d", None)
        elif self.d is None or self.d < 2:
            raise ValueError("newtonian kernel needs d >= 2")

    def __str__(self):  # the provenance label
        return self.tag if self.d is None else f"{self.tag}(d={self.d})"

    @property
    def invariant(self):
        """Invariant under translation: every kernel but the parabolic one."""
        return self.tag != "parabolic"

    def batch(self, t1, x1, t2, x2):
        """Kernel of each aligned pair; the newtonian kernel reads no times."""
        if self.tag == "newtonian":
            return newtonian_kernel_batch(x1, x2, self.d)
        return (parabolic_kernel_batch if self.tag == "parabolic"
                else cap_prime_kernel_batch)(t1, x1, t2, x2)

    def check(self, spacetime, d, what):
        """ValueError unless the kernel fits a ``what`` ("region", "cloud", ..):
        newtonian(d) a spatial one of dimension d, the others a space-time one."""
        if self.tag != "newtonian":
            if not spacetime:
                raise ValueError(f"{self.tag} kernel needs a space-time {what}")
        elif spacetime:
            raise ValueError(f"newtonian kernel needs a spatial {what}")
        elif d != self.d:
            raise ValueError(f"kernel/{what} dimension mismatch: d={self.d} vs {d}")


PARABOLIC = KernelKind("parabolic")
CAP_PRIME = KernelKind("cap_prime")


def newtonian(d):
    return KernelKind("newtonian", d)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted atoms forming a probability measure, on E or on R^d."""

    times: np.ndarray | None  # None for spatial measures
    coords: np.ndarray        # (n, d)
    weights: np.ndarray       # (n,)

    def __post_init__(self):
        coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        times = self.times
        if times is not None:
            times = np.asarray(times, dtype=float)
            if times.shape[0] != coords.shape[0]:
                raise ValueError("times/coords length mismatch")
            if np.any(times <= 0) or not np.all(np.isfinite(times)):
                raise ValueError("atom times must be finite and positive")
        if weights.shape[0] != coords.shape[0]:
            raise ValueError("weights/coords length mismatch")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {weights.sum()!r}, not 1")
        if not np.all(np.isfinite(coords)):
            raise ValueError("atom coordinates must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def spacetime(cls, points, weights):
        """Build from an iterable of (t, x) pairs or SpaceTimePoints."""
        ts, xs = [], []
        for p in points:
            if isinstance(p, SpaceTimePoint):
                ts.append(p.t)
                xs.append(p.x)
            else:
                t, x = p
                ts.append(float(t))
                xs.append(np.atleast_1d(x))
        return cls(np.asarray(ts), np.asarray(xs, dtype=float), np.asarray(weights))

    @classmethod
    def spatial(cls, coords, weights):
        return cls(None, np.asarray(coords, dtype=float), np.asarray(weights))

    @property
    def n(self):
        return self.coords.shape[0]

    @property
    def d(self):
        return self.coords.shape[1]

    @property
    def is_spacetime(self):
        return self.times is not None


def _as_point(z):
    if isinstance(z, SpaceTimePoint):
        return z
    t, x = z
    return SpaceTimePoint(t, x)


# --- parabolic kernel ---------------------------------------------------------

def reduced_log_coefs(t1, t2, s, d):
    """(A, E, B, C) with log of the reduced parabolic integrand at time s equal
    to A + E |x1-x2|^2 + (B |x1|^2 + C |x2|^2), for every x1, x2.

    The integrand is p(t1+t2-2s, x1-x2) p(s+sig, m) / (p(t1, x1) p(t2, x2)),
    sig and m the bridge variance and mean. In this basis B and C stay bounded
    as s -> t1^t2, so no large terms cancel. With a = t1-s, b = t2-s and
    h = 1/(2 (ab + (a+b) s)): E = -s h, B = 1/(2 t1) - b h, C = 1/(2 t2) - a h
    and A = (d/2) log(2 t1 t2 h). Broadcasts; needs s < t1^t2.
    """
    a = t1 - s
    b = t2 - s
    h = 0.5 / (a * b + (a + b) * s)
    return 0.5 * d * np.log(2.0 * t1 * t2 * h), -s * h, 0.5 / t1 - b * h, 0.5 / t2 - a * h


_ROWS_NODES = 1 << 15  # nodes per in-place sub-block: three buffers in 0.8 MB


def _table_exp_sum(key, feats, tables, rows, width, block):
    """Per pair p: sum_k exp(max(L[p, k], LOG_FLOOR)), L the log-integrand.

    ``tables(keys)`` returns (A, T_1, ..), each (len(keys), width), with
    L[p] = A[g] + sum_f T_f[g] feats[p, f] for the pair's key g. Each block
    of ``block`` pairs forms L by one of two routes:

    * one key (every block of a time slice or of a time-level pair): one
      matrix product, [1, feats] @ [A; T_1; ..], and the sums as a second;
    * any other block: ``rows(lo, hi, out)`` writes L of pairs lo:hi into
      out in place, in sub-blocks that stay in cache, with no table.

    The floor keeps every exp clear of subnormals; a floored node adds
    e^LOG_FLOOR.
    """
    n = key.shape[0]
    out = np.empty(n)
    # buffers reused across blocks: fresh large temporaries cost page faults
    log_buf = np.empty((min(block, n), width))
    ext_buf = np.ones((min(block, n), feats.shape[1] + 1))  # column 0 stays 1
    ones = np.ones(width)
    sub = max(1, _ROWS_NODES // width)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        log_val, ext = log_buf[:hi - lo], ext_buf[:hi - lo]
        k = key[lo:hi]
        if np.all(k == k[0]):
            ext[:, 1:] = feats[lo:hi]
            np.matmul(ext, np.concatenate(tables(k[:1])), out=log_val)
            np.maximum(log_val, LOG_FLOOR, out=log_val)
            np.matmul(np.exp(log_val, out=log_val), ones, out=out[lo:hi])
            continue
        for s_lo in range(lo, hi, sub):
            s_hi = min(s_lo + sub, hi)
            part = log_val[:s_hi - s_lo]
            rows(s_lo, s_hi, part)
            np.maximum(part, LOG_FLOOR, out=part)
            np.matmul(np.exp(part, out=part), ones, out=out[s_lo:s_hi])
    return out


def reduced_pair_sum(t1, x1, t2, x2, rho, omega, block=1024):
    """Per pair: sum_k tmin omega_k * reduced integrand at s = tmin - tmin rho_k.

    tmin = t1^t2 and (rho, omega) is the caller's rule in units of tmin,
    with any endpoint substitution folded into omega. A block whose pairs
    share one (t1, t2) uses one coefficient table, log tmin + log omega
    folded into A; any other block forms the same sum in place, with the
    coefficients regrouped in u = tmin rho and g = |t1-t2|:
    1/(2h) = tmin (g + tmin sigma), sigma = 2 rho - rho^2 per node, and the
    quadratic part P + u Q with P and Q per pair, formed per sub-block. A
    node then costs one log, one division and a few multiply-adds.
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    x2 = np.atleast_2d(np.asarray(x2, dtype=float))
    d = x1.shape[1]
    dx = x1 - x2
    feats = np.stack([np.sum(dx * dx, axis=1), np.sum(x1 * x1, axis=1),
                      np.sum(x2 * x2, axis=1)], axis=1)
    log_omega = np.log(omega)

    def tables(tt):
        T1, T2 = tt.real[:, None], tt.imag[:, None]
        tmin = np.minimum(T1, T2)
        A, E, B, C = reduced_log_coefs(T1, T2, tmin - tmin * rho, d)
        return A + np.log(tmin) + log_omega, E, B, C

    sigma = rho * (2.0 - rho)
    nodes = np.stack([np.ones_like(rho), sigma, rho, log_omega, sigma * log_omega])

    def rows(lo, hi, out):
        # reduced_log_coefs regrouped with u = tmin rho and g = |t1-t2|:
        # 1/(2h) = D = tmin g + tmin^2 sigma and s f0 + b f1 + a f2 = P + u Q,
        # P = tmin f0 + g (f1 if t1 <= t2 else f2), Q = f1 + f2 - f0. Then
        # L = N / D - (d/2) log D, N = (c + log omega) D - (P + u Q) / 2 and
        # c = (d/2) log(t1 t2) + log tmin + f1 / (2 t1) + f2 / (2 t2); D and N
        # are per-pair scalars times the node rows, one matrix product each
        T1, T2 = t1[lo:hi], t2[lo:hi]
        f0, f1, f2 = feats[lo:hi].T
        tmin = np.minimum(T1, T2)
        g = np.abs(T1 - T2)
        tg, tt = tmin * g, tmin * tmin
        c = 0.5 * d * np.log(T1 * T2) + np.log(tmin) + 0.5 * f1 / T1 + 0.5 * f2 / T2
        p = tmin * f0 + g * np.where(T1 <= T2, f1, f2)
        den = np.stack([tg, tt], axis=1) @ nodes[:2]
        num = np.stack([c * tg - 0.5 * p, c * tt, -0.5 * tmin * (f1 + f2 - f0),
                        tg, tt], axis=1) @ nodes
        num /= den
        np.log(den, out=out)
        out *= -0.5 * d
        out += num

    # (t1, t2) packed into one complex key, so one comparison tests a block
    return _table_exp_sum(t1 + 1j * t2, feats, tables, rows, rho.size, block)


def mutual_kernel(z, z2):
    """Parabolic pair energy K(z, z2); +inf on the diagonal for d >= 2.

    Evaluated as a 1-D adaptive quadrature with a square-root substitution
    at the s -> t^t' endpoint, which removes the (t^t'-s)^{-1/2} singularity
    at d = 1 and leaves divergence at d >= 2 to the diagonal sentinel.
    """
    z, z2 = _as_point(z), _as_point(z2)
    if z.d != z2.d:
        raise ValueError("dimension mismatch")
    if z == z2 and z.d >= 2:
        return math.inf
    t1, x1 = z.t, z.x_arr
    t2, x2 = z2.t, z2.x_arr
    dx = x1 - x2
    tmin = min(t1, t2)

    def f(u):
        u = np.asarray(u, dtype=float)
        A, E, B, C = reduced_log_coefs(t1, t2, tmin - u * u, z.d)
        return 2.0 * u * _exp_floor(A + E * (dx @ dx) + (B * (x1 @ x1) + C * (x2 @ x2)))

    return adaptive_gauss_kronrod(f, 0.0, math.sqrt(tmin), rel_tol=MUTUAL_REL_TOL)


_BATCH_UNIT_NODES, _BATCH_UNIT_WEIGHTS = panel_rule(
    geometric_edges(0.0, 1.0, 13, ratio=0.5), order=8)


def parabolic_kernel_batch(t1, x1, t2, x2, block=1024):
    """Vectorized K over aligned pair arrays; fixed composite rule.

    Same integrand as :func:`mutual_kernel` on a panel grid clustered toward
    the endpoint; agreement with the adaptive scalar path is pinned by tests.
    After the u = sqrt(t^t' - s) substitution, nodes sit at
    s = tmin - tmin u0^2 with weights 2 tmin u0 w0 for unit nodes (u0, w0).
    """
    return reduced_pair_sum(t1, x1, t2, x2, _BATCH_UNIT_NODES * _BATCH_UNIT_NODES,
                            2.0 * _BATCH_UNIT_NODES * _BATCH_UNIT_WEIGHTS, block)


def mutual_kernel_bruteforce(z, z2, n_s=160, n_y=64):
    """Oracle: tensor quadrature of the defining (1+d)-dim double integral.

    The y-grid per s-node is a Gauss-Legendre window centred where the three
    Gaussian factors concentrate (precision-weighted mean). Used in tests
    only; requires z != z2.
    """
    z, z2 = _as_point(z), _as_point(z2)
    if z == z2:
        raise ValueError("bruteforce oracle requires distinct points")
    d = z.d
    t1, x1 = z.t, z.x_arr
    t2, x2 = z2.t, z2.x_arr
    den = heat_density(t1, x1) * heat_density(t2, x2)
    tmin = min(t1, t2)
    s_nodes, s_weights = panel_rule(
        np.concatenate([
            geometric_edges(0.0, 0.5 * tmin, n_s // (2 * 10), ratio=0.5),
            geometric_edges(tmin, 0.5 * tmin, n_s // (2 * 10), ratio=0.5)[::-1][1:],
        ]),
        order=10,
    )
    unit, wunit = tensor_rule(*gauss_legendre(n_y), d)
    total = 0.0
    for s, ws in zip(s_nodes, s_weights):
        # precision-weighted centre/width of p(s,y) p(t1-s,x1-y) p(t2-s,x2-y)
        prec = 1.0 / s + 1.0 / (t1 - s) + 1.0 / (t2 - s)
        width = 1.0 / math.sqrt(prec)
        centre = (x1 / (t1 - s) + x2 / (t2 - s)) / prec
        half = 10.0 * width
        mesh = centre + half * unit
        wmesh = wunit * half ** d
        log_f = (log_heat_density(s, np.sum(mesh * mesh, axis=1), d)
                 + log_heat_density(t1 - s, np.sum((x1 - mesh) ** 2, axis=1), d)
                 + log_heat_density(t2 - s, np.sum((x2 - mesh) ** 2, axis=1), d))
        total += ws * float(np.dot(wmesh, _exp_floor(log_f)))
    return total / den


# --- cap-prime kernel ---------------------------------------------------------

_CAP_PRIME_SPAN = 300.0  # e^{-150} tail is negligible at any shipped tolerance


def cap_prime_kernel(z, z2):
    """Damped kernel K'(z, z2) = 1/2 int_{|t-t'|}^inf p(u, x-x') e^{-u/2} du."""
    z, z2 = _as_point(z), _as_point(z2)
    if z.d != z2.d:
        raise ValueError("dimension mismatch")
    if z == z2 and z.d >= 2:
        return math.inf
    d = z.d
    u0 = abs(z.t - z2.t)
    dx = z.x_arr - z2.x_arr
    sq = dx @ dx

    def f(w):
        w = np.asarray(w, dtype=float)
        u = u0 + w * w
        return 2.0 * w * _exp_floor(log_heat_density(u, sq, d) - 0.5 * u) * 0.5

    return adaptive_gauss_kronrod(f, 0.0, math.sqrt(_CAP_PRIME_SPAN),
                                  rel_tol=CAP_PRIME_REL_TOL)


_CP_UNIT_NODES, _CP_UNIT_WEIGHTS = panel_rule(
    geometric_edges(0.0, math.sqrt(_CAP_PRIME_SPAN), 24, ratio=0.55), order=12)


def cap_prime_kernel_batch(t1, x1, t2, x2, block=1024):
    """Vectorized K' over aligned pair arrays (fixed composite rule).

    The log integrand at u = |t-t'| + w^2 is affine in |x-x'|^2, with one
    coefficient table for a block whose pairs share |t-t'|; any other block
    forms each pair's own table row in place.
    """
    dx = np.atleast_2d(np.asarray(x1, dtype=float)) - np.atleast_2d(x2)
    gap = np.abs(np.asarray(t1, dtype=float) - np.asarray(t2, dtype=float))
    sq = np.sum(dx * dx, axis=1)[:, None]

    def tables(g):
        u = g[:, None] + _CP_UNIT_NODES * _CP_UNIT_NODES
        return (np.log(_CP_UNIT_NODES * _CP_UNIT_WEIGHTS) - 0.5 * u
                - 0.5 * dx.shape[1] * np.log(2.0 * math.pi * u), -0.5 / u)

    def rows(lo, hi, out):
        A, T = tables(gap[lo:hi])
        np.multiply(T, sq[lo:hi], out=out)
        out += A

    return _table_exp_sum(gap, sq, tables, rows, _CP_UNIT_NODES.size, block)


def cap_prime_bruteforce(z, z2):
    """Oracle: tensor (s, y) quadrature of the defining damped double integral."""
    z, z2 = _as_point(z), _as_point(z2)
    d = z.d
    t1, x1 = z.t, z.x_arr
    t2, x2 = z2.t, z2.x_arr
    tmin = min(t1, t2)
    # s runs over (-inf, t^t'); the e^{-(t+t'-2s)/2} damping truncates the
    # tail. Edges decrease from tmin, so panel weights come out negative and
    # abs() below restores the orientation.
    s_nodes, s_weights = panel_rule(geometric_edges(
        tmin, tmin - CP_ORACLE_SPAN, CP_ORACLE_N_S // 10, ratio=0.55), order=10)
    unit, wunit = tensor_rule(*gauss_legendre(CP_ORACLE_N_Y), d)
    total = 0.0
    for s, ws in zip(s_nodes, s_weights):
        a, b = t1 - s, t2 - s
        prec = 1.0 / a + 1.0 / b
        width = 1.0 / math.sqrt(prec)
        centre = (x1 / a + x2 / b) / prec
        half = 10.0 * width
        mesh = centre + half * unit
        wmesh = wunit * half ** d
        log_f = (log_heat_density(a, np.sum((x1 - mesh) ** 2, axis=1), d) - 0.5 * a
                 + log_heat_density(b, np.sum((x2 - mesh) ** 2, axis=1), d) - 0.5 * b)
        total += abs(ws) * float(np.dot(wmesh, _exp_floor(log_f)))
    return total


# --- Newtonian / logarithmic kernel -------------------------------------------

def newtonian_kernel(x, x2, d):
    """h_{d-2}(|x - x2|): r^{-(d-2)} for d >= 3, log_+(1/r) for d = 2."""
    if d < 2:
        raise ValueError("newtonian kernel needs d >= 2")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    x2 = np.atleast_1d(np.asarray(x2, dtype=float))
    r = float(np.linalg.norm(x - x2))
    if r == 0.0:
        return math.inf
    if d == 2:
        return max(0.0, -math.log(r))
    return r ** (2 - d)


def newtonian_kernel_batch(x1, x2, d):
    x1 = np.atleast_2d(np.asarray(x1, dtype=float))
    x2 = np.atleast_2d(np.asarray(x2, dtype=float))
    r = np.linalg.norm(x1 - x2, axis=1)
    out = np.full(r.shape, np.inf)
    pos = r > 0
    if d == 2:
        out[pos] = np.maximum(0.0, -np.log(r[pos]))
    else:
        out[pos] = r[pos] ** (2 - d)
    return out


# --- energy functional ----------------------------------------------------------

def _pair_kernel(kind, measure, i, j):
    if kind.tag == "newtonian":
        return newtonian_kernel(measure.coords[i], measure.coords[j], kind.d)
    zi = SpaceTimePoint(measure.times[i], measure.coords[i])
    zj = SpaceTimePoint(measure.times[j], measure.coords[j])
    return (mutual_kernel if kind.tag == "parabolic" else cap_prime_kernel)(zi, zj)


def energy(measure, kind):
    """Quadratic energy sum_{ij} w_i w_j K(z_i, z_j), diagonal included.

    Zero-weight atoms drop out (0 * inf = 0 convention); any +inf pair with
    positive weight product makes the energy +inf.
    """
    kind.check(measure.is_spacetime, measure.d, "measure")
    w = measure.weights
    total = 0.0
    for i in range(measure.n):
        if w[i] == 0.0:
            continue
        for j in range(i, measure.n):
            if w[j] == 0.0:
                continue
            k = _pair_kernel(kind, measure, i, j)
            if math.isinf(k):
                return math.inf
            total += (1.0 if i == j else 2.0) * w[i] * w[j] * k
    return total


def energy_mc_paths(measure, n_paths, dt, seed):
    """Brownian-path Monte Carlo estimate of the parabolic energy.

    Simulates standard Brownian paths from the origin on [0, T] (T = max atom
    time, exact truncation since bridge weights vanish beyond each atom time),
    trapezoid-integrates the squared measure-averaged bridge weight along each
    path, and returns (mean, standard error) over paths.
    """
    if not measure.is_spacetime:
        raise ValueError("path estimator needs a space-time measure")
    t_min = float(np.min(measure.times))
    if dt >= t_min:
        raise ValueError(f"dt={dt} must be below the smallest atom time {t_min}")
    T = float(np.max(measure.times))
    n_steps = int(math.ceil(T / dt))
    grid = np.linspace(0.0, T, n_steps + 1)
    d = measure.d
    rng = np.random.default_rng(seed)
    vals = np.empty(n_paths)
    done = 0
    while done < n_paths:
        m = min(MC_PATH_CHUNK, n_paths - done)
        steps = rng.normal(0.0, 1.0, size=(m, n_steps, d)) * np.sqrt(np.diff(grid))[None, :, None]
        paths = np.concatenate([np.zeros((m, 1, d)), np.cumsum(steps, axis=1)], axis=1)
        fw = bridge_weight_batch(measure.times, measure.coords,
                                 np.broadcast_to(grid, (m, n_steps + 1)), paths, d)
        f = np.tensordot(measure.weights, fw, axes=(0, 0))
        vals[done:done + m] = np.trapezoid(f * f, grid, axis=1)
        done += m
    est = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(n_paths))
    return est, se
