"""Discretized capacity: kernel matrix assembly, simplex energy minimization,
and the duality certificate.

The capacity of a region is 1 / min_w w^T K w over the probability simplex,
where K is the mutual-energy matrix of the region's grid cells. Off-diagonal
entries are kernel values of cell centers; diagonal entries are cell
self-energies estimated by within-cell pair sampling, which keeps the
discretized energy from collapsing to zero under refinement. The kernel
kind evaluates its pairs (``KernelKind.batch``) and says whether it is
invariant under translation, so this module names no kernel. Pairs of a
space-time cloud are evaluated one pair of its time levels per kernel call,
so each call shares one time key. An invariant kernel's self-energy takes
one seeded draw of offset pairs from the centre, shared by every cell; the
parabolic kernel draws pairs per cell. On a cloud whose centres sit on the
pitch lattice, an invariant kernel's matrix is a :class:`LatticeKernel`, a
table of the kernel over lattice offsets plus that one self-energy, with no
n x n array: its rows are gathered from the table and its products K w are
FFT convolutions.

The energy is minimized by pairwise Frank-Wolfe: each step moves mass from
the support atom with the largest potential to the cell with the smallest.
The support is kept as a compact index array, so an emptied atom leaves it
with weight exactly 0, and the incrementally updated gradient is recomputed
from the full matrix-vector product every 512 steps.

A result keeps its potentials K w, so certifying it on the solve's own cloud
assembles nothing; only another cloud (a translate, another pitch) is
assembled again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .energy_kernel import PARABOLIC, DiscreteMeasure, reduced_pair_sum
from .quadrature import gauss_legendre
from .region import RegionError, Thorn, discretize, region_to_dict

__all__ = [
    "KernelMatrix",
    "LatticeKernel",
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

PAIR_CHUNK = 1 << 16      # pairs per kernel call: a multiple of the kernels' 1024-pair
                          # block, so every temporary sized by pairs stays a fixed size
LEVEL_MIN_CELLS = 16      # mean cells per time level below which a cloud is one level:
                          # more kernel calls would cost more than the in-place route
SUPPORT_TOL = 1e-12       # verify_duality: weight above which a cell is on the
NORM_SUPPORT_TOL = 1e-10  # support for min_potential, and for the norm quadrature


def _check_values(a):
    """Raise unless every value of ``a`` is finite and non-negative; return
    the largest. min and max carry any NaN or infinity."""
    lo, hi = float(a.min()), float(a.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("kernel matrix has non-finite entries")
    if lo < 0:
        raise ValueError("kernel matrix has negative entries")
    return hi


@dataclass
class KernelMatrix:
    """A dense kernel matrix, read by the solver as a LatticeKernel is."""

    entries: np.ndarray
    provenance: dict

    @property
    def n(self):
        return self.entries.shape[0]

    def row(self, i, out):
        """Row i: a view of the matrix; ``out`` is not written."""
        return self.entries[i]

    def diagonal(self):
        return np.diagonal(self.entries)

    def matvec(self, w):
        return self.entries @ w

    def check(self):
        """Finite, non-negative and symmetric to 1e-12 * max(1, max|a|).

        Symmetry is compared on 256 x 256 block pairs, so it makes no n x n
        temporary.
        """
        a = self.entries
        tol = 1e-12 * max(1.0, _check_values(a))
        n, block = a.shape[0], 256
        for i in range(0, n, block):
            for j in range(i, n, block):
                asym = np.abs(a[i:i + block, j:j + block] - a[j:j + block, i:i + block].T)
                if asym.max() > tol:
                    raise ValueError("kernel matrix is not symmetric")


def _fft_len(m):
    """Smallest 2^a 3^b 5^c >= m (a divisor of 30^64): numpy.fft is fast on it."""
    while pow(30, 64, m):
        m += 1
    return m


class LatticeKernel:
    """Kernel matrix of a translation-invariant kernel on cells at lattice
    indices ``k`` (n, D), with no n x n array: entry (i, j) is
    ``table[sum_a |k_ja - k_ia| * strides_a]`` (see ``_stencil_table``), and
    offset 0, the diagonal, holds ``self_energy``. Rows are gathered from
    the table; products are zero-padded FFT convolutions over the offset
    grid, 2S - 1 wide on an axis where the cells span S lattice values."""

    def __init__(self, k, table, strides, self_energy, provenance):
        self.table = np.array(table, dtype=float)
        self.table[0] = self_energy
        self.provenance, self.n, self._cells = provenance, k.shape[0], tuple(k.T)
        self._k = k.tolist()  # python ints index the _dist rows fastest
        self._shape = tuple((k.max(axis=0) + 1).tolist())
        self._fft_shape = [_fft_len(2 * s - 1) for s in self._shape]
        # _dist[a][v] = |k_a - v| * strides_a for each value v on axis a, in the
        # smallest integer type that holds every offset of the table
        size = np.min_scalar_type(self.table.size - 1)
        self._dist = [(np.abs(np.arange(s)[:, None] - kx) * st).astype(size)
                      for s, kx, st in zip(self._shape, k.T, strides)]
        self._off = np.empty(self.n, dtype=size)

    def row(self, i, out):
        """Row i, gathered from the table into ``out``, which is returned."""
        ki = self._k[i]
        off = self._dist[0][ki[0]]
        for dist, v in zip(self._dist[1:], ki[1:]):
            off = np.add(off, dist[v], out=self._off)
        # in range by construction; "clip" writes into out with no buffer
        return self.table.take(off, out=out, mode="clip")

    def diagonal(self):
        return np.full(self.n, self.table[0])

    @cached_property
    def _kernel_hat(self):
        """FFT of the kernel on the offset grid: offset +-m sits at positions
        m and L - m of an axis of length L; the positions in between are
        never read by a product of two grids S wide."""
        pos = [np.minimum(np.arange(m), m - np.arange(m)).clip(max=s - 1)
               for s, m in zip(self._shape, self._fft_shape)]
        return np.fft.rfftn(self.table.reshape(self._shape)[np.ix_(*pos)])

    def matvec(self, w):
        grid = np.zeros(self._shape)
        grid[self._cells] = w
        axes = range(grid.ndim)
        conv = np.fft.irfftn(np.fft.rfftn(grid, self._fft_shape, axes) * self._kernel_hat,
                             self._fft_shape, axes)
        return conv[self._cells]

    @property
    def entries(self):
        """The n x n matrix, stacked from its rows."""
        a = np.empty((self.n, self.n))
        for i in range(self.n):
            self.row(i, a[i])
        return a

    def check(self):
        """Table and self-energy finite and non-negative, one cell per site:
        every entry is one of those values, symmetric by construction."""
        _check_values(self.table)
        occupied = np.zeros(self._shape, dtype=bool)
        occupied[self._cells] = True
        if np.count_nonzero(occupied) < self.n:
            raise ValueError("kernel matrix has two cells on one lattice site")


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
    potentials: np.ndarray | None = None  # K w on the solve's cloud; not serialized

    @property
    def support_size(self):
        """Cells with positive weight; None without potentials."""
        if self.potentials is None:
            return None
        return int(np.count_nonzero(self.equilibrium.weights > 0))

    @property
    def kkt_residual(self):
        """Relative KKT violation of the potentials K w against E = energy_min:
        max(max over the support of |(K w)_i - E|, max(0, E - min_i (K w)_i)) / E,
        0 at the exact optimum; None without potentials."""
        if self.potentials is None:
            return None
        kw, e = self.potentials, self.energy_min
        on_support = np.max(np.abs(kw[self.equilibrium.weights > 0] - e))
        return max(float(on_support), max(0.0, e - float(kw.min()))) / e

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


def _time_levels(times):
    """Cell indices of each distinct time, in time order, each in index order."""
    order = np.argsort(times, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(times[order])) + 1)


def _level_pair_chunks(levels, target=PAIR_CHUNK):
    """Yield (i, j) index arrays covering the strict upper triangle, i < j:
    per ordered pair of ``levels`` (from ``_time_levels``), runs of whole rows
    of at most ``target`` pairs (one row if a row alone is wider). On one
    level, ``[np.arange(n)]``, that is the row-major triangle in chunks of
    whole rows; any sorted index array gives the triangle over those cells.
    Only one chunk is alive at a time, so its index arrays and the kernel's
    temporaries stay a fixed size however many pairs there are."""
    for rows in levels:
        for cols in levels:
            step = max(1, target // max(cols.size, 1))
            for r0 in range(0, rows.size, step):
                r = rows[r0:r0 + step]
                ii, jj = np.nonzero(r[:, None] < cols)
                if ii.size:
                    ii, jj = r[ii], cols[jj]  # rebound: the positions are freed
                    yield ii, jj


def _pair_values(kind, times1, coords1, times2, coords2):
    """Kernel of each aligned pair, evaluated PAIR_CHUNK pairs per call;
    times are None on a spatial cloud. The slices start at multiples of the
    kernels' 1024-pair block, so every block, and hence every value, is the
    one a single call would give."""
    out = np.empty(len(coords1))
    for lo in range(0, out.size, PAIR_CHUNK):
        s = slice(lo, lo + PAIR_CHUNK)
        t1, t2 = (None, None) if times1 is None else (times1[s], times2[s])
        out[s] = kind.batch(t1, coords1[s], t2, coords2[s])
    return out


def _cell_points(cloud, idx, count, rng):
    """Uniform points in cells as flat (times, coords) arrays: ``count``
    offsets from a cell centre, one draw shared by every cell, if ``idx`` is
    None, else ``count`` points in each cell idx, cell by cell. Coordinates
    are drawn first; times are None on a spatial cloud, and a slice's cells
    have no time extent, so its time offsets are 0."""
    half = 0.5 * cloud.resolution
    shape = (count,) if idx is None else (idx.size, count)
    x = rng.uniform(-half, half, size=(*shape, cloud.d))
    t = None
    if cloud.times is not None:
        t = np.zeros(shape) if cloud.is_slice else rng.uniform(-half, half, size=shape)
    if idx is not None:  # offsets to points: add the centres in place
        x += cloud.coords[idx][:, None, :]
        t += cloud.times[idx][:, None]
    return None if t is None else t.reshape(-1), x.reshape(-1, cloud.d)


def _mean_kernel(kind, cloud, idx, count, rng):
    """Mean kernel over ``count`` pairs of ``_cell_points`` per cell idx, or
    over one shared offset draw (an array of one value) if ``idx`` is None.
    Coincident pairs have probability zero, so non-finite values are redrawn
    once."""

    def draw():
        return _pair_values(kind, *_cell_points(cloud, idx, count, rng),
                            *_cell_points(cloud, idx, count, rng)).reshape(-1, count)

    vals = draw()
    bad = ~np.isfinite(vals)
    if np.any(bad):
        vals[bad] = draw()[bad]
        if not np.all(np.isfinite(vals)):
            raise RuntimeError("cell self-energy estimate is non-finite after "
                               "resampling; reduce the resolution")
    return vals.mean(axis=1)


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
    order, or None when the FFT grid of offsets, (2 max(k) + 1) per axis,
    would be larger than the cloud's off-diagonal pair count.
    """
    shape = k.max(axis=0) + 1
    n = k.shape[0]
    if math.prod((2 * shape - 1).tolist()) > n * (n - 1) // 2:
        return None
    m = np.indices(shape).reshape(shape.size, -1).T * pitch
    # axis 0 is time for a space-time kernel (d None); the newtonian reads no times
    t, x = m[:, 0], (m if kind.d else m[:, 1:])
    table = kind.batch(t, x, np.zeros_like(t), np.zeros_like(x))
    strides = np.append(np.cumprod(shape[:0:-1])[::-1], 1)
    return table, strides


def _fill_pairwise(a, cloud, kind):
    """Kernel of each pair of centres over the upper triangle of the zeroed
    ``a``, each chunk written to both triangles as it is evaluated.

    A space-time cloud is filled one pair of its time levels at a time, so
    every kernel block shares one time key. A spatial cloud, a single level,
    or levels that average fewer than LEVEL_MIN_CELLS cells are one level.
    Each chunk holds at most PAIR_CHUNK pairs (one row if it is wider), so
    beyond ``a`` the fill's memory does not grow with the pair count."""
    levels = [np.arange(cloud.n)] if cloud.times is None else _time_levels(cloud.times)
    if len(levels) > cloud.n // LEVEL_MIN_CELLS:
        levels = [np.arange(cloud.n)]
    times = cloud.times
    for ii, jj in _level_pair_chunks(levels):  # lazy: only one chunk is alive
        a[ii, jj] = a[jj, ii] = _pair_values(
            kind, None if times is None else times[ii], cloud.coords[ii],
            None if times is None else times[jj], cloud.coords[jj])


def assemble_kernel_matrix(cloud, kind, diag_samples=256, seed=0):
    """Kernel matrix over cell centers with sampled diagonal self-energies.

    Off-diagonal (i, j): kernel of the two centers. A translation-invariant
    kind (``kind.invariant``) on a cloud whose centres sit on the pitch
    lattice gives a :class:`LatticeKernel`: one table of the kernel over
    lattice offsets (a stencil) and the shared self-energy, exactly
    symmetric, with no n x n array. Any other cloud or kind, e.g. slices at
    times that are not a whole number of pitches apart or a cloud whose FFT
    offset grid would outnumber its pairs, gives a dense
    :class:`KernelMatrix`, filled pair by pair over the upper triangle
    (``_fill_pairwise``), so every kernel block of a space-time cloud shares
    one time key.

    Diagonal i: mean kernel over ``diag_samples`` independent point pairs
    drawn uniformly in cell i by ``_cell_points``, from ``default_rng(seed)``.
    An invariant kernel's pairs are offsets from the centre, drawn once and
    shared by every cell, so every diagonal entry holds one value; any other
    draws pairs per cell, in blocks of 200_000 // diag_samples cells.
    Non-finite samples are redrawn once. Deterministic per seed;
    ``diag_samples`` must be at least 1.
    """
    if cloud.n < 1:
        raise ValueError("empty cell cloud")
    if diag_samples < 1:
        raise ValueError(f"diag_samples must be at least 1, got {diag_samples!r}")
    kind.check(cloud.times is not None, cloud.d, "cloud")
    n = cloud.n
    k = _lattice_index(cloud) if kind.invariant else None
    stencil = None if k is None else _stencil_table(kind, k, cloud.resolution)
    rng = np.random.default_rng(seed)
    if kind.invariant:
        strategy = "within-cell pair sampling, one offset draw shared by every cell"
        diag = _mean_kernel(kind, cloud, None, diag_samples, rng)[0]
    else:
        strategy = "within-cell pair sampling per cell"
        block = max(1, 200_000 // diag_samples)
        diag = np.concatenate([_mean_kernel(kind, cloud, np.arange(lo, min(lo + block, n)),
                                            diag_samples, rng) for lo in range(0, n, block)])

    prov = {
        "kernel": str(kind),
        "region": region_to_dict(cloud.parent),
        "resolution": cloud.resolution,
        "diag_strategy": strategy,
        "diag_samples": diag_samples,
        "seed": int(seed),
        "n_cells": n,
    }
    if stencil is None:
        a = np.zeros((n, n))
        _fill_pairwise(a, cloud, kind)
        a[np.diag_indices(n)] = diag
        km = KernelMatrix(a, prov)
    else:
        km = LatticeKernel(k, *stencil, diag, prov)
    km.check()
    return km


def minimize_energy(K, tol=1e-6, max_iter=None):
    """Pairwise Frank-Wolfe for min_w w^T K w on the simplex.

    Each step moves mass from the away atom a (largest gradient on the
    support) to the toward atom s (smallest gradient anywhere, lowest index
    on ties), w += gamma (e_s - e_a) with 0 <= gamma <= w_a, by exact line
    search on the quadratic. A step that empties a removes it from the
    support, so its weight is exactly 0. The support is held compactly, as
    index and weight arrays, so the gap and the away atom read only the
    support's gradient; w is never rescaled. The gradient 2 K w is updated
    incrementally with one row difference per step and recomputed from a
    scattered w every 512 steps to shed drift. Stops when the FW gap drops to
    tol * objective (Lacoste-Julien & Jaggi, NeurIPS 2015). Returns
    (energy_min, weights, gap, iterations, converged).

    K is a KernelMatrix or a LatticeKernel (an array is wrapped as a
    KernelMatrix), read through ``row`` (s and a per step), ``diagonal`` and
    ``matvec`` (each refresh and the final energy). K must be symmetric: the
    gradient update reads row i of K in place of column i.
    """
    if not isinstance(K, (KernelMatrix, LatticeKernel)):
        K = KernelMatrix(np.asarray(K, dtype=float), {})
    n = K.n
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter is None:
        max_iter = 50 * n

    i0 = int(np.argmin(K.diagonal()))
    act = np.empty(n, dtype=np.intp)   # support indices, act[:m]
    wa = np.empty(n)                   # their weights, wa[:m]
    pos = np.full(n, -1, dtype=np.intp)  # slot of each atom in act, -1 if out
    act[0], wa[0], pos[i0], m = i0, 1.0, 0, 1
    rs, ra, buf = np.empty((3, n))     # row buffers of a gathering K
    grad = 2.0 * K.row(i0, rs)
    w = np.zeros(n)
    f = 0.5 * float(grad[i0])
    gap = math.inf
    it = 0
    for it in range(1, max_iter + 1):
        g_act = grad[act[:m]]
        gw = float(g_act @ wa[:m])
        s = int(np.argmin(grad))  # argmin takes the lowest index on ties
        g_s = float(grad[s])
        gap = gw - g_s
        if gap <= tol * abs(f):
            break
        k = int(np.argmax(g_act))
        a = int(act[k])
        w_a = float(wa[k])
        slope = g_s - float(g_act[k])  # < 0, since g_a >= gw > g_s
        row_s, row_a = K.row(s, rs), K.row(a, ra)
        curv = float(row_s[s]) + float(row_a[a]) - 2.0 * float(row_s[a])
        gamma = w_a if curv <= 0 else min(w_a, -slope / (2.0 * curv))
        f_prev = f
        f += gamma * slope + gamma * gamma * curv
        if not f <= f_prev * (1.0 + 1e-10) + 1e-14:
            raise RuntimeError(
                f"objective did not decrease at iteration {it}: {f_prev} -> {f}")
        np.subtract(row_s, row_a, out=buf)
        buf *= 2.0 * gamma
        grad += buf
        if pos[s] < 0:
            act[m], wa[m], pos[s] = s, 0.0, m
            m += 1
        wa[pos[s]] += gamma
        if gamma >= w_a:  # a is emptied: move the last slot into its place
            m -= 1
            act[k], wa[k] = act[m], wa[m]
            pos[act[k]] = k
            pos[a] = -1
        else:
            wa[k] = w_a - gamma
        if it % 512 == 0:
            # shed accumulated drift in the incremental updates
            wa[:m] /= wa[:m].sum()
            w[act[:m]] = wa[:m]
            grad = 2.0 * K.matvec(w)
            w[act[:m]] = 0.0
            f = 0.5 * float(grad[act[:m]] @ wa[:m])
    w[act[:m]] = wa[:m] / wa[:m].sum()
    f = float(w @ K.matvec(w))
    converged = gap <= 10.0 * tol * abs(f)
    return f, w, gap, it, converged


def capacity_on_cloud(cloud, kind, tol=1e-6, seed=0, diag_samples=256,
                      max_iter=None):
    """Assemble and minimize on an existing cloud; capacity = 1/energy.

    The result keeps K w for :func:`verify_duality` on the same cloud.
    """
    km = assemble_kernel_matrix(cloud, kind, diag_samples=diag_samples, seed=seed)
    energy_min, w, gap, iters, converged = minimize_energy(km, tol=tol,
                                                           max_iter=max_iter)
    cap = math.inf if energy_min <= 0 else 1.0 / energy_min
    eq = DiscreteMeasure(cloud.times, cloud.coords, w)  # times None: spatial
    return CapacityResult(cap, energy_min, eq, gap, iters, converged, tol,
                          km.provenance, km.matvec(eq.weights))


def capacity(region, kind, resolution, tol=1e-6, seed=0, diag_samples=256,
             max_iter=None):
    """Capacity of a region: discretize, assemble, minimize, invert.

    Space-time regions pair with the parabolic or cap_prime kernel, spatial
    regions with the newtonian kernel.
    """
    kind.check(region.spacetime, region.d, "region")
    cloud = discretize(region, resolution)
    return capacity_on_cloud(cloud, kind, tol=tol, seed=seed,
                             diag_samples=diag_samples, max_iter=max_iter)


@dataclass
class DualityReport:
    min_potential: float        # over the equilibrium support
    min_potential_all: float    # over every cell center
    norm_sq_ratio: float        # independent ||f*||^2 quadrature / capacity
    capacity: float


def _is_own_cloud(result, cloud):
    """Same region (hence slice flag), pitch, times and centres as the solve,
    so the same seed would assemble the solve's matrix bit for bit."""
    eq, prov = result.equilibrium, result.provenance
    return (region_to_dict(cloud.parent) == prov["region"]
            and cloud.resolution == prov["resolution"]
            and np.array_equal(cloud.times, eq.times)
            and np.array_equal(cloud.coords, eq.coords))


def verify_duality(result, cloud, matrix=None):
    """Equilibrium certificate for a converged parabolic run (others raise).

    The dual function f*(s, y) = capacity * sum_i w_i p(t_i-s, x_i-y)/p(t_i, x_i)
    has potential capacity * (K w); at the optimum it is ~1 on the support of
    the equilibrium weights and >= 1 - delta everywhere on the cloud. With no
    ``matrix``, K w is the result's ``potentials`` when ``cloud`` is the
    solve's own (same region, pitch, times and centres); any other cloud, e.g.
    a translate, is assembled with the result's seed and diagonal samples.
    The squared norm of f* is recomputed on an independent fixed time grid and
    compared against capacity (they agree at the continuum optimum): GL-96 on
    (0, t^t') per pair, with no endpoint substitution, so interior nodes
    truncate the diagonal singularity (the desk-scale smoothing the norm
    check tolerates). On a time slice that is one matrix product per block.
    The kernel is symmetric, so the sum runs over the support's strict upper
    triangle, counted twice, in chunks of at most PAIR_CHUNK pairs
    (``_level_pair_chunks``), plus one call for its diagonal pairs: the
    working memory is a fixed chunk, whatever the support's size.
    """
    prov = result.provenance
    if prov["kernel"] != str(PARABOLIC):
        raise ValueError(f"duality certificate needs a parabolic result, "
                         f"got kernel {prov['kernel']!r}")
    w = result.equilibrium.weights
    if cloud.n != w.size:
        raise ValueError(f"cloud has {cloud.n} cells but the result has "
                         f"{w.size} equilibrium weights")
    if matrix is None and result.potentials is not None and _is_own_cloud(result, cloud):
        kw = result.potentials
    else:
        if matrix is None:
            matrix = assemble_kernel_matrix(cloud, PARABOLIC,
                                            diag_samples=prov["diag_samples"],
                                            seed=prov["seed"])
        kw = matrix.matvec(w)
    potentials = result.capacity * kw
    min_potential = float(np.min(potentials[w > SUPPORT_TOL]))
    min_potential_all = float(np.min(potentials))

    idx = np.flatnonzero(w > NORM_SUPPORT_TOL)
    xg, wg = gauss_legendre(96)
    rho, omega = 0.5 * (1.0 - xg), 0.5 * wg
    t, x = cloud.times, cloud.coords

    def pair_sum(ii, jj):
        vals = reduced_pair_sum(t[ii], x[ii], t[jj], x[jj], rho, omega)
        return float((w[ii] * w[jj]) @ vals)

    upper = sum(pair_sum(ii, jj) for ii, jj in _level_pair_chunks([idx]))
    norm_sq = result.capacity ** 2 * (2.0 * upper + pair_sum(idx, idx))
    return DualityReport(min_potential, min_potential_all,
                         norm_sq / result.capacity, result.capacity)


def capacity_growth_profile(region, eps_list, pitch_factor=0.5, tol=1e-5, seed=0,
                            diag_samples=256):
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
            out = capacity(sub, PARABOLIC, res, tol=tol, seed=seed,
                           diag_samples=diag_samples)
            rows.append({"eps": eps, "resolution": res,
                         "capacity": out.capacity, "error": ""})
        except (RegionError, RuntimeError, ValueError) as exc:
            rows.append({"eps": eps, "resolution": res, "capacity": None,
                         "error": str(exc)})
    return rows


def translation_noninvariance_demo(region, shift, kind, resolution, tol=1e-6,
                                   seed=0):
    """Capacity of a region and of its translate on the same cell topology.

    The shifted run reuses the original cells translated by (dt, dx), so the
    two values differ only through the kernel's genuine non-invariance.
    """
    dt, dx = shift
    cloud = discretize(region, resolution)
    base = capacity_on_cloud(cloud, kind, tol=tol, seed=seed)
    shifted = capacity_on_cloud(cloud.translated(dt, dx), kind, tol=tol, seed=seed)
    return base, shifted
