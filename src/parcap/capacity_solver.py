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
pitch lattice, an invariant kernel's matrix is a :class:`LatticeKernel`, the
kernel on the grid of signed lattice offsets, with no n x n array: a row is
one shifted gather from that grid, a product K w one FFT convolution with it.

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

from .energy_kernel import KERNEL_BLOCK, PARABOLIC, DiscreteMeasure, reduced_pair_sum
from .quadrature import gauss_legendre
from .region import RegionError, Thorn, _whole, discretize, region_to_dict

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

PAIR_CHUNK = 64 * KERNEL_BLOCK  # pairs per kernel call: whole kernel blocks (see
                                # _pair_values), and a fixed size for pair temporaries
LEVEL_MIN_CELLS = 16      # mean cells per time level below which a cloud is one level:
                          # more kernel calls would cost more than the in-place route
FINISH_TOL = 1e-3         # dense matrices: FW gap tolerance before the KKT finish
FINISH_PASSES = 32        # finish passes before it gives way to FW at the caller's tol
KKT_TOL = 1e-12           # finish: |1 - (K v)_i| on the support, 1 - (K v)_i off it
CG_LOOSE = 1e-6           # finish: CG residual 2-norm until a pass solves to z > 0 on S


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
    indices ``k`` (n, D), with no n x n array: the kernel on the grid of
    signed offsets, 2S - 1 wide on an axis where the cells span S lattice
    values, offset m at m + S - 1 (``grid``, from ``_stencil_table``; held,
    not copied), with offset 0, the centre, set to ``self_energy``. Entry
    (i, j) is the grid at base_j - base_i + centre, base_j the flat index of
    cell j, so a row is one shifted gather; a product, one FFT convolution."""

    def __init__(self, k, grid, self_energy, provenance):
        self.provenance, self.n, self._cells = provenance, k.shape[0], tuple(k.T)
        self._fft_shape = [_fft_len(s) for s in grid.shape]
        self._centre = grid.size // 2  # offset 0, S - 1 on each axis, is the middle
        grid.flat[self._centre] = self_energy
        self._grid, self._base = grid, np.ravel_multi_index(self._cells, grid.shape)
        self._off = np.empty_like(self._base)
        # product buffers: the zero-padded weight grid (zero off the cells for
        # good), its spectrum and the convolution; cell k reads k + S - 1 of it
        self._weights = np.zeros(self._fft_shape)
        self._spec = np.empty((*self._fft_shape[:-1], self._fft_shape[-1] // 2 + 1), complex)
        self._conv = np.empty(self._fft_shape)
        self._read = np.ravel_multi_index(tuple(k.T + np.array(grid.shape)[:, None] // 2),
                                          self._fft_shape)

    def row(self, i, out):
        """Row i, gathered from the offset grid into ``out``, which is returned."""
        off = np.add(self._base, self._centre - self._base[i], out=self._off)
        # in range by construction; "clip" writes into out with no buffer
        return self._grid.take(off, out=out, mode="clip")

    def diagonal(self):
        return np.full(self.n, self._grid.flat[self._centre])

    @cached_property
    def _kernel_hat(self):
        """FFT of the zero-padded offset grid; lazy, so ``check`` runs first."""
        return np.fft.rfftn(self._grid, self._fft_shape, range(self._grid.ndim))

    def matvec(self, w):
        """K w by one FFT convolution, in the kernel's buffers (numpy's irfftn
        unrolled, so its inverse transforms run in place)."""
        self._weights[self._cells] = w
        axes = range(self._weights.ndim)
        spec = np.fft.rfftn(self._weights, axes=axes, out=self._spec)
        spec *= self._kernel_hat
        for axis in axes[:-1]:
            np.fft.ifft(spec, axis=axis, out=spec)
        np.fft.irfft(spec, self._fft_shape[-1], axis=axes[-1], out=self._conv)
        # an axis L >= 2S - 1 long wraps nothing onto k + S - 1
        return self._conv.take(self._read)

    @property
    def entries(self):
        """The n x n matrix, stacked from its rows."""
        a = np.empty((self.n, self.n))
        for i in range(self.n):
            self.row(i, a[i])
        return a

    def check(self):
        """Grid finite and non-negative (it holds every entry's value, symmetric
        by construction), one cell per site: no equal bases (sorted, as
        numpy.unique costs about 10 ms on first use importing numpy.ma)."""
        _check_values(self._grid)
        if np.any(np.diff(np.sort(self._base)) == 0):
            raise ValueError("kernel matrix has two cells on one lattice site")


@dataclass
class CapacityResult:
    """After a KKT finish (``provenance["solver"]``), ``gap`` is 2 (E - min K w),
    ``iterations`` the loose FW steps, ``converged`` True, ``tol`` the caller's."""
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
    times are None on a spatial cloud. The slices start at multiples of
    KERNEL_BLOCK, so every block, and hence every value, is the one a single
    call would give."""
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
    over one shared offset draw (an array of one value) if ``idx`` is None."""
    vals = _pair_values(kind, *_cell_points(cloud, idx, count, rng),
                        *_cell_points(cloud, idx, count, rng))
    return vals.reshape(-1, count).mean(axis=1)


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
    """Kernel on the grid of signed lattice offsets m * pitch that a
    LatticeKernel holds and transforms, |m| <= max(k) per axis, offset m at
    m + max(k); or None when that grid would outnumber the cloud's pairs.
    The kernel is evaluated on m >= 0 and mirrored per axis, m -> |m|.
    """
    shape = k.max(axis=0) + 1
    n = k.shape[0]
    if math.prod((2 * shape - 1).tolist()) > n * (n - 1) // 2:
        return None
    m = np.indices(shape).reshape(shape.size, -1).T * pitch
    # axis 0 is time for a space-time kernel (d None); the newtonian reads no times
    t, x = m[:, 0], (m if kind.d else m[:, 1:])
    table = kind.batch(t, x, np.zeros_like(t), np.zeros_like(x)).reshape(shape)
    return table[np.ix_(*(np.abs(np.arange(1 - s, s)) for s in shape))]


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
    lattice gives a :class:`LatticeKernel`: the kernel on the grid of signed
    lattice offsets (a stencil) with the shared self-energy at its centre,
    exactly symmetric, with no n x n array. Any other cloud or kind, e.g.
    slices at times that are not a whole number of pitches apart or a cloud
    whose offset grid would outnumber its pairs, gives a dense
    :class:`KernelMatrix`, filled pair by pair over the upper triangle
    (``_fill_pairwise``), so every kernel block of a space-time cloud shares
    one time key.

    Diagonal i: mean kernel over ``diag_samples`` independent point pairs
    drawn uniformly in cell i by ``_cell_points``, from ``default_rng(seed)``.
    An invariant kernel's pairs are offsets from the centre, drawn once and
    shared by every cell, so every diagonal entry holds one value; any other
    draws pairs per cell, in blocks of 200_000 // diag_samples cells.
    Deterministic per seed; ``diag_samples`` must be a whole number >= 1.
    """
    if cloud.n < 1:
        raise ValueError("empty cell cloud")
    diag_samples = _whole(diag_samples, "diag_samples", -math.inf)
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
        km = LatticeKernel(k, stencil, diag, prov)
    km.check()
    return km


def _check_tol(tol):
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


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
    _check_tol(tol)
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


def _cg_on_support(K, on, x, tol):
    """CG for K_SS x = 1 from ``x`` (zero off S = ``on``) by 1-D products
    ``K.matvec`` zero off S, to residual 2-norm ``tol``; None if p^T K p <= 0."""
    r = p = np.where(on, 1.0 - K.matvec(x), 0.0)
    rr = r @ r
    for _ in range(2 * np.count_nonzero(on) + 8):
        if rr <= tol * tol:
            break
        q = np.where(on, K.matvec(p), 0.0)
        curv = p @ q
        if not curv > 0:
            return None
        x, r, rr_prev = x + rr / curv * p, r - rr / curv * q, rr
        rr = r @ r
        p = r + rr / rr_prev * p
    return x


def _kkt_finish(K, w, energy):
    """v > 0, K v = 1 on S, K v >= 1 off S (equilibrium v / sum v) by Lawson-Hanson
    active sets (1974, ch. 23) from S = {w > 0} or {K w < energy}, v = w / energy;
    None on p^T K p <= 0 or after FINISH_PASSES passes."""
    on = (w > 0) | (K.matvec(w) < energy)
    v = z = np.where(on, w / energy, 0.0)
    tol = CG_LOOSE
    for _ in range(FINISH_PASSES):
        if (z := _cg_on_support(K, on, z, tol)) is None:
            return None
        low = on & (z <= 0)
        if np.any(low):  # step v towards z to its first 0: ratio v / (v - z), 0 at v = 0
            v = v + np.divide(v, v - z, out=1.0 - low, where=low & (v > 0)).min() * (z - v)
            on &= (v > 1e-15) | (z > 0)  # entries at 0 leave S
            v[~on] = z[~on] = 0.0
            continue
        v, kv, tol = z, K.matvec(z), 0.5 * KKT_TOL  # z > 0: tight from here on
        short = ~on & (kv < 1.0 - KKT_TOL)  # these cells join S
        if not np.any(short) and np.max(np.abs(kv[on] - 1.0)) <= KKT_TOL:
            return v
        on |= short
    return None


def capacity_on_cloud(cloud, kind, tol=1e-6, seed=0, diag_samples=256,
                      max_iter=None):
    """Assemble and minimize on an existing cloud; capacity = 1/energy.

    The result keeps K w for :func:`verify_duality` on the same cloud. A dense
    matrix takes FW at max(tol, FINISH_TOL) closed by ``_kkt_finish`` (else FW
    at ``tol``, as a LatticeKernel does); on an indefinite one (a parabolic
    box or thorn) that is a KKT point FW approaches, not a proven minimum.
    """
    _check_tol(tol)  # before the assembly: a dense matrix solves at max(tol, FINISH_TOL)
    km = assemble_kernel_matrix(cloud, kind, diag_samples=diag_samples, seed=seed)
    dense = isinstance(km, KernelMatrix)
    energy_min, w, gap, iters, converged = minimize_energy(
        km, tol=max(tol, FINISH_TOL) if dense else tol, max_iter=max_iter)
    v = _kkt_finish(km, w, energy_min) if dense and energy_min > 0 else None
    if v is not None:
        w, energy_min, converged = v / v.sum(), 1.0 / float(v.sum()), True
    elif dense:
        energy_min, w, gap, iters, converged = minimize_energy(km, tol=tol, max_iter=max_iter)
    cap = math.inf if energy_min <= 0 else 1.0 / energy_min
    eq = DiscreteMeasure(cloud.times, cloud.coords, w)  # times None: spatial
    kw = km.matvec(eq.weights)
    gap = gap if v is None else 2.0 * (energy_min - float(kw.min()))
    prov = dict(km.provenance, solver="frank-wolfe" if v is None else "kkt finish")
    return CapacityResult(cap, energy_min, eq, gap, iters, converged, tol, prov, kw)


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
    idx = np.flatnonzero(w > 0)  # support: pairwise FW and the finish zero every cell off it
    min_potential = float(np.min(potentials[idx]))
    min_potential_all = float(np.min(potentials))

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
