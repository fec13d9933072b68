"""Discretized capacity: kernel matrix assembly, simplex energy minimization,
and the duality certificate.

The capacity of a region is 1 / min_w w^T K w over the probability simplex,
where K is the mutual-energy matrix of the region's grid cells. Off-diagonal
entries are kernel values of cell centers; diagonal entries are cell
self-energies estimated by within-cell pair sampling, which keeps the
discretized energy from collapsing to zero under refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy_kernel import (
    PARABOLIC,
    DiscreteMeasure,
    cap_prime_kernel_batch,
    newtonian_kernel_batch,
    parabolic_kernel_batch,
    reduced_pair_sum,
)
from .quadrature import gauss_legendre
from .region import RegionError, Thorn, discretize, region_to_dict

__all__ = [
    "KernelMatrix",
    "CapacityResult",
    "DualityReport",
    "assemble_kernel_matrix",
    "minimize_energy",
    "capacity",
    "capacity_on_cloud",
    "verify_duality",
    "capacity_growth_profile",
    "translation_noninvariance_demo",
]


@dataclass
class KernelMatrix:
    entries: np.ndarray
    provenance: dict

    @property
    def n(self):
        return self.entries.shape[0]

    def check(self):
        """Finite, non-negative and symmetric to 1e-12 * max(1, max|a|).

        min and max carry any NaN or infinity, and symmetry is compared on
        256 x 256 block pairs, so it makes no n x n temporary.
        """
        a = self.entries
        lo, hi = float(a.min()), float(a.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("kernel matrix has non-finite entries")
        if lo < 0:
            raise ValueError("kernel matrix has negative entries")
        tol = 1e-12 * max(1.0, hi)
        n, block = a.shape[0], 256
        for i in range(0, n, block):
            for j in range(i, n, block):
                asym = np.abs(a[i:i + block, j:j + block] - a[j:j + block, i:i + block].T)
                if asym.max() > tol:
                    raise ValueError("kernel matrix is not symmetric")


@dataclass
class CapacityResult:
    capacity: float
    energy_min: float
    equilibrium: DiscreteMeasure
    gap: float
    iterations: int
    converged: bool
    tol: float
    provenance: dict

    def to_json_dict(self):
        eq = self.equilibrium
        atoms = eq.coords.tolist()
        times = eq.times.tolist() if eq.times is not None else None
        return {
            "capacity": self.capacity,
            "energy_min": self.energy_min,
            "gap": self.gap,
            "iterations": self.iterations,
            "converged": self.converged,
            "tol": self.tol,
            "provenance": self.provenance,
            "equilibrium": {
                "times": times,
                "coords": atoms,
                "weights": eq.weights.tolist(),
            },
        }


def _triangle_chunks(n, target=1_500_000):
    """Yield (i, j) index arrays covering the strict upper triangle, row-major,
    in chunks of whole rows."""
    rows_per_chunk = max(1, target // max(n, 1))
    for i0 in range(0, n - 1, rows_per_chunk):
        ii, jj = np.triu_indices(min(rows_per_chunk, n - i0), k=1, m=n - i0)
        ii += i0  # in place: a shifted copy would double the chunk's index memory
        jj += i0
        yield ii, jj


def _pair_values(kind, times1, coords1, times2, coords2):
    if kind.tag == "parabolic":
        return parabolic_kernel_batch(times1, coords1, times2, coords2)
    if kind.tag == "cap_prime":
        return cap_prime_kernel_batch(times1, coords1, times2, coords2)
    return newtonian_kernel_batch(coords1, coords2, kind.d)


def _cell_samples(cloud, idx, count, rng):
    """Uniform samples inside cells idx: returns (times, coords) arrays."""
    half = 0.5 * cloud.resolution
    c = cloud.coords[idx]
    pts = c[:, None, :] + rng.uniform(-half, half, size=(idx.size, count, cloud.d))
    if cloud.times is None:
        return None, pts.reshape(-1, cloud.d)
    t = cloud.times[idx]
    if cloud.is_slice:
        tt = np.repeat(t, count)  # slice cells have no time extent
    else:
        tt = (t[:, None] + rng.uniform(-half, half, size=(idx.size, count))).reshape(-1)
    return tt, pts.reshape(-1, cloud.d)


def _lattice_index(cloud):
    """Integer lattice index of each cell centre, over (t, x) for space-time
    clouds, or None if some centre is off the pitch lattice by more than
    1e-9 pitch."""
    pts = cloud.coords if cloud.times is None else np.column_stack([cloud.times,
                                                                    cloud.coords])
    h = cloud.resolution
    lo = pts.min(axis=0)
    k = np.rint((pts - lo) / h)
    if np.max(np.abs(pts - (lo + k * h))) > 1e-9 * h:
        return None
    return k.astype(np.intp)


def _stencil_table(kind, k, pitch):
    """Kernel on every lattice offset m * pitch, m = 0..max(k) per axis.

    Returns the table flattened in C order and the axis strides of that
    order, or None when the table would be larger than the cloud's
    off-diagonal pair count.
    """
    shape = k.max(axis=0) + 1
    n = k.shape[0]
    if math.prod(shape.tolist()) > n * (n - 1) // 2:
        return None
    m = np.indices(shape).reshape(shape.size, -1).T * pitch
    if kind.tag == "newtonian":
        table = newtonian_kernel_batch(m, np.zeros_like(m), kind.d)
    else:
        table = cap_prime_kernel_batch(m[:, 0], m[:, 1:], np.zeros(m.shape[0]),
                                       np.zeros_like(m[:, 1:]))
    strides = np.append(np.cumprod(shape[:0:-1])[::-1], 1)
    return table, strides


def _fill_stencil(a, k, table, strides, target=131_072):
    """a[i, j] = table[sum_axis |k_j - k_i| * stride], in blocks of whole rows
    holding about ``target`` offsets (1 MB, which stays in cache)."""
    n = a.shape[0]
    ks = np.ascontiguousarray((k * strides).T)  # one contiguous row per axis
    rows = max(1, target // n)
    off = np.empty((min(rows, n), n), dtype=np.intp)
    step = np.empty_like(off)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        o, t = off[:hi - lo], step[:hi - lo]
        o.fill(0)
        for kx in ks:
            np.subtract(kx[None, :], kx[lo:hi, None], out=t)
            np.abs(t, out=t)
            o += t
        # offsets are in range by construction; "clip" lets take write into
        # the matrix rows without the buffer that "raise" makes
        np.take(table, o, out=a[lo:hi], mode="clip")


def _fill_pairwise(a, cloud, kind):
    """Kernel of each pair of centres over the upper triangle, mirrored."""
    for ii, jj in _triangle_chunks(cloud.n):  # lazy: only one chunk is alive
        if cloud.times is None:
            a[ii, jj] = _pair_values(kind, None, cloud.coords[ii], None, cloud.coords[jj])
        else:
            a[ii, jj] = _pair_values(kind, cloud.times[ii], cloud.coords[ii],
                                     cloud.times[jj], cloud.coords[jj])
    a += a.T


def assemble_kernel_matrix(cloud, kind, diag_samples=256, seed=0):
    """Kernel matrix over cell centers with sampled diagonal self-energies.

    Off-diagonal (i, j): kernel of the two centers. The Newtonian and
    cap-prime kernels are translation invariant, so on a cloud whose centres
    sit on the pitch lattice they are read from one table of the kernel over
    lattice offsets (a stencil), which makes the matrix exactly symmetric.
    The parabolic kernel, clouds off the lattice (e.g. slices at times that
    are not a whole number of pitches apart) and clouds whose offset table
    would outnumber their pairs are evaluated pair by pair. Diagonal i: mean
    kernel over ``diag_samples`` independent point pairs drawn uniformly in
    cell i. Deterministic per seed.
    """
    if cloud.n < 1:
        raise ValueError("empty cell cloud")
    _check_kind_cloud(kind, cloud)
    n = cloud.n
    a = np.zeros((n, n))
    stencil = None
    if kind.tag != "parabolic":
        k = _lattice_index(cloud)
        if k is not None:
            stencil = _stencil_table(kind, k, cloud.resolution)
    if stencil is None:
        _fill_pairwise(a, cloud, kind)
    else:
        _fill_stencil(a, k, *stencil)

    rng = np.random.default_rng(seed)
    diag = np.empty(n)
    block = max(1, 200_000 // max(diag_samples, 1))
    for lo in range(0, n, block):
        idx = np.arange(lo, min(lo + block, n))
        t1, p1 = _cell_samples(cloud, idx, diag_samples, rng)
        t2, p2 = _cell_samples(cloud, idx, diag_samples, rng)
        vals = _pair_values(kind, t1, p1, t2, p2).reshape(idx.size, diag_samples)
        bad = ~np.isfinite(vals)
        if np.any(bad):
            # coincident sample pairs have probability zero; redraw once
            t1, p1 = _cell_samples(cloud, idx, diag_samples, rng)
            t2, p2 = _cell_samples(cloud, idx, diag_samples, rng)
            vals2 = _pair_values(kind, t1, p1, t2, p2).reshape(idx.size, diag_samples)
            vals[bad] = vals2[bad]
            if not np.all(np.isfinite(vals)):
                raise RuntimeError(
                    "cell self-energy estimate is non-finite after resampling; "
                    "reduce the resolution"
                )
        diag[idx] = vals.mean(axis=1)
    a[np.diag_indices(n)] = diag

    prov = {
        "kernel": kind.tag if kind.d is None else f"{kind.tag}(d={kind.d})",
        "region": region_to_dict(cloud.parent),
        "resolution": cloud.resolution,
        "diag_strategy": "within-cell pair sampling",
        "diag_samples": diag_samples,
        "seed": int(seed),
        "n_cells": n,
    }
    km = KernelMatrix(a, prov)
    km.check()
    return km


def _check_kind_cloud(kind, cloud):
    if kind.tag == "newtonian":
        if cloud.times is not None:
            raise ValueError("newtonian kernel needs a spatial cloud")
        if kind.d != cloud.d:
            raise ValueError("kernel/cloud dimension mismatch")
    elif cloud.times is None:
        raise ValueError(f"{kind.tag} kernel needs a space-time cloud")


def minimize_energy(K, tol=1e-6, max_iter=None):
    """Frank-Wolfe with away steps for min_w w^T K w on the simplex.

    Exact line search (quadratic objective), incremental gradient updates,
    lowest-index tie-breaking in the linear oracle. Stops when the FW gap
    drops to tol * objective. Returns (energy_min, weights, gap, iterations,
    converged).

    K must be symmetric: the gradient update reads row i of K in place of
    column i, because a row is contiguous in memory.
    """
    A = K.entries if isinstance(K, KernelMatrix) else np.asarray(K, dtype=float)
    n = A.shape[0]
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter is None:
        max_iter = 50 * n

    i0 = int(np.argmin(np.diag(A)))
    w = np.zeros(n)
    w[i0] = 1.0
    grad = 2.0 * A[i0]
    f = float(A[i0, i0])
    gap = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        gw = float(grad @ w)
        s_idx = int(np.argmin(grad))  # argmin takes the lowest index on ties
        gap = gw - float(grad[s_idx])
        if gap <= tol * abs(f):
            break
        active = np.flatnonzero(w > 0.0)
        a_loc = int(np.argmax(grad[active]))
        a_idx = int(active[a_loc])
        away_gain = float(grad[a_idx]) - gw
        f_prev = f
        if gap >= away_gain or active.size == 1:
            # toward step: w + gamma (e_s - w)
            col = A[s_idx]
            denom = float(A[s_idx, s_idx]) - float(grad[s_idx]) + f
            slope = float(grad[s_idx]) - gw  # = -gap < 0
            gamma = 1.0 if denom <= 0 else min(1.0, -slope / (2.0 * denom))
            w *= 1.0 - gamma
            w[s_idx] += gamma
            f = (1 - gamma) ** 2 * f + gamma * (1 - gamma) * float(grad[s_idx]) \
                + gamma ** 2 * float(A[s_idx, s_idx])
            grad *= 1.0 - gamma
            grad += (2.0 * gamma) * col
        else:
            # away step: w + gamma (w - e_a), capped so w[a] stays >= 0
            col = A[a_idx]
            wa = float(w[a_idx])
            gamma_max = wa / (1.0 - wa) if wa < 1.0 else math.inf
            denom = f - float(grad[a_idx]) + float(A[a_idx, a_idx])
            slope = gw - float(grad[a_idx])  # negative
            gamma = gamma_max if denom <= 0 else min(gamma_max, -slope / (2.0 * denom))
            w *= 1.0 + gamma
            w[a_idx] -= gamma
            if w[a_idx] < 0.0:  # gamma_max step lands exactly on the face
                w[a_idx] = 0.0
            f = (1 + gamma) ** 2 * f - gamma * (1 + gamma) * float(grad[a_idx]) \
                + gamma ** 2 * float(A[a_idx, a_idx])
            grad *= 1.0 + gamma
            grad -= (2.0 * gamma) * col
        if not f <= f_prev * (1.0 + 1e-10) + 1e-14:
            raise RuntimeError(
                f"objective did not decrease at iteration {it}: {f_prev} -> {f}")
        if it % 512 == 0:
            # shed accumulated drift in the incremental updates
            np.maximum(w, 0.0, out=w)
            w /= w.sum()
            grad = 2.0 * (A @ w)
            f = 0.5 * float(grad @ w)
    np.maximum(w, 0.0, out=w)
    w /= w.sum()
    f = float(w @ (A @ w))
    converged = gap <= 10.0 * tol * abs(f)
    return f, w, gap, it, converged


def capacity_on_cloud(cloud, kind, tol=1e-6, seed=0, diag_samples=256,
                      max_iter=None):
    """Assemble and minimize on an existing cloud; capacity = 1/energy."""
    km = assemble_kernel_matrix(cloud, kind, diag_samples=diag_samples, seed=seed)
    energy_min, w, gap, iters, converged = minimize_energy(km, tol=tol,
                                                           max_iter=max_iter)
    cap = math.inf if energy_min <= 0 else 1.0 / energy_min
    if cloud.times is None:
        eq = DiscreteMeasure.spatial(cloud.coords, w)
    else:
        eq = DiscreteMeasure(cloud.times, cloud.coords, w)
    return CapacityResult(cap, energy_min, eq, gap, iters, converged, tol,
                          km.provenance)


def capacity(region, kind, resolution, tol=1e-6, seed=0, diag_samples=256,
             max_iter=None):
    """Capacity of a region: discretize, assemble, minimize, invert.

    Space-time regions pair with the parabolic or cap_prime kernel, spatial
    regions with the newtonian kernel.
    """
    if kind.tag == "newtonian" and getattr(region, "spacetime", False):
        raise ValueError("newtonian capacity needs a spatial region")
    if kind.tag != "newtonian" and not getattr(region, "spacetime", False):
        raise ValueError(f"{kind.tag} capacity needs a space-time region")
    cloud = discretize(region, resolution)
    return capacity_on_cloud(cloud, kind, tol=tol, seed=seed,
                             diag_samples=diag_samples, max_iter=max_iter)


@dataclass
class DualityReport:
    min_potential: float        # over the equilibrium support
    min_potential_all: float    # over every cell center
    norm_sq_ratio: float        # independent ||f*||^2 quadrature / capacity
    capacity: float


def verify_duality(result, cloud, matrix=None, support_tol=1e-12):
    """Equilibrium certificate for a converged parabolic run (others raise).

    The dual function f*(s, y) = capacity * sum_i w_i p(t_i-s, x_i-y)/p(t_i, x_i)
    has potential capacity * (K w); at the optimum it is ~1 on the support of
    the equilibrium weights and >= 1 - delta everywhere on the cloud. The
    squared norm of f* is recomputed on an independent fixed time grid and
    compared against capacity (they agree at the continuum optimum): GL-96 on
    (0, t^t') per pair, with no endpoint substitution, so interior nodes
    truncate the diagonal singularity (the desk-scale smoothing the norm
    check tolerates).
    """
    prov = result.provenance
    if prov["kernel"] != "parabolic":
        raise ValueError(f"duality certificate needs a parabolic result, "
                         f"got kernel {prov['kernel']!r}")
    if matrix is None:
        matrix = assemble_kernel_matrix(cloud, PARABOLIC,
                                        diag_samples=prov["diag_samples"],
                                        seed=prov["seed"])
    w = result.equilibrium.weights
    potentials = result.capacity * (matrix.entries @ w)
    support = w > support_tol
    min_potential = float(np.min(potentials[support]))
    min_potential_all = float(np.min(potentials))

    idx = np.flatnonzero(w > 1e-10)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    xg, wg = gauss_legendre(96)
    vals = reduced_pair_sum(cloud.times[ii], cloud.coords[ii], cloud.times[jj],
                            cloud.coords[jj], 0.5 * (1.0 - xg), 0.5 * wg)
    norm_sq = result.capacity ** 2 * float(np.sum(w[ii] * w[jj] * vals))
    return DualityReport(min_potential, min_potential_all,
                         norm_sq / result.capacity, result.capacity)


def capacity_growth_profile(region, eps_list, kind=PARABOLIC, pitch_factor=0.5,
                            tol=1e-5, seed=0, diag_samples=256, max_iter=None):
    """Capacity of the thorn truncated to {t > eps}, per eps, pitch = c * eps.

    Emits the series for divergence inspection; per-eps failures are recorded
    and the series continues. No regularity verdict is computed.
    """
    if not isinstance(region, Thorn):
        raise ValueError("growth profile expects a thorn region")
    rows = []
    for eps in eps_list:
        if not region.t_lo <= eps < region.t_hi:
            rows.append({"eps": eps, "resolution": None, "capacity": None,
                         "error": "eps outside (t_lo, t_hi)"})
            continue
        res = pitch_factor * eps
        try:
            sub = Thorn(region.profile, region.param, eps, region.t_hi, region.d)
            out = capacity(sub, kind, res, tol=tol, seed=seed,
                           diag_samples=diag_samples, max_iter=max_iter)
            rows.append({"eps": eps, "resolution": res,
                         "capacity": out.capacity, "error": ""})
        except (RegionError, RuntimeError, ValueError) as exc:
            rows.append({"eps": eps, "resolution": res, "capacity": None,
                         "error": str(exc)})
    return rows


def translation_noninvariance_demo(region, shift, kind, resolution, tol=1e-6,
                                   seed=0, diag_samples=256, max_iter=None):
    """Capacity of a region and of its translate on the same cell topology.

    The shifted run reuses the original cells translated by (dt, dx), so the
    two values differ only through the kernel's genuine non-invariance.
    """
    dt, dx = shift
    cloud = discretize(region, resolution)
    base = capacity_on_cloud(cloud, kind, tol=tol, seed=seed,
                             diag_samples=diag_samples, max_iter=max_iter)
    shifted = capacity_on_cloud(cloud.translated(dt, dx), kind, tol=tol,
                                seed=seed, diag_samples=diag_samples,
                                max_iter=max_iter)
    return base, shifted
