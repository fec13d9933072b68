"""Branching Brownian motion approximation of the measure-valued process,
plus Brownian range hitting by walk on spheres.

The particle system is critical binary branching Brownian motion: each of N
initial particles (mass 1/N) carries an independent exponential branch clock
of rate ``branch_rate`` (default 4N, calibrated so that N times the
single-line survival probability converges to 1/(2t)), and at each ring the
particle dies or splits in two with probability 1/2 each.

Three equivalent-in-law engines, each exact for what it samples:

* forward engine -- event-driven within synchronized reporting steps of
  pitch dt; branch times are exact exponentials (no thinning bias) and
  motion increments are exact Gaussians, so dt only sets the resolution at
  which detectors see the trajectories.
* reduced-tree engine -- for hits at a fixed time slice, samples only the
  genealogy of particles alive at the slice (inhomogeneous binary pure-birth
  along the conditioned tree) and their Brownian positions; this is the same
  process restricted to survivors, at a cost proportional to survivor count.
* count engine -- for survival probabilities, steps the population count
  through a time grid with the exact offspring law (binomial survivors plus
  negative-binomial excess), since motion is irrelevant to extinction.

``estimate_graph_hits`` is the one front door for graph hits: every region
must be space-time of the config's dimension (else RegionError), a family
whose union has exactly one slice time runs the reduced-tree engine on the
regions' spatial bases, and any other family runs the forward engine.

The forward and reduced-tree engines advance a fixed-size chunk of runs in
lock-step: every lineage carries its run id, one set of array operations
serves all runs of a generation, and hits and tallies are scattered back
per run. Each estimator draws all its runs from one generator,
``run_rng(seed, 0)``, so results are deterministic per seed. The public
single-run calls are batches of one of the same engines.

The range estimator jumps each walker to the boundary of the largest ball
about it that avoids the target (walk on spheres), with the d >= 3 kill
sphere and the d = 2 Exp(1) killing both applied exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .region import RegionError, RegionUnion, SliceOf

__all__ = [
    "BranchingConfig",
    "HitEstimate",
    "RunTrace",
    "wilson_interval",
    "simulate_branching",
    "GraphHitDetector",
    "reduced_slice_positions",
    "estimate_graph_hit",
    "estimate_graph_hits",
    "graph_hit_run_records",
    "write_run_records_csv",
    "estimate_support_hit",
    "estimate_survival",
    "estimate_range_hit",
    "run_rng",
]


@dataclass(frozen=True)
class BranchingConfig:
    """Particle-system parameters; branch_rate defaults to 4 * n_particles.

    dt is the trajectory reporting pitch for hit detectors. Branch times are
    exact exponential draws, so dt carries no branching bias; it only bounds
    how finely detectors sample the motion.
    """

    n_particles: int
    dt: float
    horizon: float
    d: int
    branch_rate: float | None = None
    max_particle_steps: int = 10_000_000

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("need at least one initial particle")
        if self.dt <= 0 or self.horizon <= 0:
            raise ValueError("dt and horizon must be positive")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")
        if self.branch_rate is None:
            object.__setattr__(self, "branch_rate", 4.0 * self.n_particles)
        if self.branch_rate < 0:
            raise ValueError("branch rate must be nonnegative")

    @property
    def mass(self):
        return 1.0 / self.n_particles


WILSON_Z = 1.96  # normal quantile of the 95% Wilson interval


def wilson_interval(hits, runs):
    """95% Wilson score interval for a binomial proportion."""
    z = WILSON_Z
    if runs == 0:
        return 0.0, 1.0
    p = hits / runs
    denom = 1.0 + z * z / runs
    centre = (p + z * z / (2 * runs)) / denom
    half = z * math.sqrt(p * (1 - p) / runs + z * z / (4 * runs ** 2)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


@dataclass(frozen=True)
class HitEstimate:
    """Monte Carlo hitting probability with its implied excursion mass."""

    runs: int
    hits: int
    p_hat: float
    ci_low: float
    ci_high: float
    implied_excursion_mass: float
    exploded: int = 0

    @classmethod
    def from_counts(cls, hits, runs, exploded=0):
        p = hits / runs if runs else 0.0
        lo, hi = wilson_interval(hits, runs)
        mass = math.inf if p >= 1.0 else -math.log1p(-p)
        return cls(runs, hits, p, lo, hi, mass, exploded)

    def mass_half_width(self):
        """Wilson half-width propagated through -log(1-p)."""
        half = 0.5 * (self.ci_high - self.ci_low)
        return half / max(1.0 - self.p_hat, 1e-12)

    def to_json_dict(self):
        return {
            "runs": self.runs, "hits": self.hits, "p_hat": self.p_hat,
            "ci_low": self.ci_low, "ci_high": self.ci_high,
            "implied_excursion_mass":
                None if math.isinf(self.implied_excursion_mass)
                else self.implied_excursion_mass,
            "exploded": self.exploded,
        }


def run_rng(seed, stream):
    """Generator for (seed, stream index).

    Every estimator draws all its runs from ``run_rng(seed, 0)``: the engines
    advance fixed-size chunks of runs in lock-step, so a seed gives the same
    result on every call. The single-run calls (``simulate_branching``,
    ``reduced_slice_positions``) take any generator, e.g. ``run_rng(seed, r)``
    to replay independent runs one by one.
    """
    return np.random.default_rng([int(seed), int(stream)])


# --- forward engine -------------------------------------------------------------

FORWARD_CHUNK_LINEAGES = 8192  # initial lineages per lock-step chunk of forward runs


@dataclass
class RunTrace:
    survived: bool
    extinction_time: float | None
    max_particles: int
    particle_steps: int
    exploded: bool


class GraphHitDetector:
    """Streaming space-time hit flags, one per (region, run).

    Each region flags the segments that hit it (``graph_segment_hits``): time
    slices by linear interpolation at the slice crossing, all other
    space-time regions by endpoint membership at the reporting pitch.
    ``hits[k, r]`` is set once a segment of run r hits region k; ``flags``
    lists run 0's flag per region, the whole result of a single-run
    simulation.
    """

    def __init__(self, regions, runs=1):
        self.regions = list(regions)
        self.hits = np.zeros((len(self.regions), runs), dtype=bool)

    @property
    def flags(self):
        return self.hits[:, 0].tolist()

    def observe(self, ta, tb, pa, pb, run):
        for k, reg in enumerate(self.regions):
            self.hits[k, run[reg.graph_segment_hits(ta, tb, pa, pb)]] = True


def _forward_batch(config, runs, rng, detectors=()):
    """``runs`` forward runs in lock-step; one RunTrace per run.

    Every lineage carries its run id, so each generation of events is one
    set of array operations over all runs, and per-run tallies are bincounts.
    A run that exceeds config.max_particle_steps is dropped as exploded; its
    trace keeps the tallies reached before that step.
    """
    lam, d, n0 = config.branch_rate, config.d, config.n_particles
    grid = np.unique(np.append(np.arange(0.0, config.horizon, config.dt), config.horizon))
    grid = grid[grid <= config.horizon]  # arange can overshoot the horizon
    pos = np.zeros((runs * n0, d))
    run = np.repeat(np.arange(runs), n0)
    steps = np.zeros(runs, dtype=np.int64)
    max_particles = np.full(runs, n0, dtype=np.int64)
    exploded = np.zeros(runs, dtype=bool)
    extinction = np.full(runs, np.nan)
    count = np.full(runs, n0, dtype=np.int64)
    t_cur = 0.0
    for t_next in grid[1:]:
        if run.size == 0:
            break
        # pending lineages: start time and remaining window t_next - start
        cur, cur_run = pos, run
        start = np.full(run.size, t_cur)
        settled, settled_run = [], []
        held = np.zeros(runs, dtype=np.int64)
        while cur_run.size:
            alive = np.bincount(cur_run, minlength=runs)
            steps += alive
            over = (steps > config.max_particle_steps) & ~exploded
            if np.any(over):
                exploded |= over
                keep = ~over[cur_run]
                cur, cur_run, start = cur[keep], cur_run[keep], start[keep]
            np.maximum(max_particles, alive + held, out=max_particles, where=~exploded)
            # each clock rings after an exact Exp(lam) time; those that ring
            # inside the window end their segment there
            step = t_next - start
            if lam > 0:
                clock = rng.exponential(size=cur_run.size) / lam
                ring = clock < step
                np.minimum(clock, step, out=step)
            else:
                ring = np.zeros(cur_run.size, dtype=bool)
            moved = cur + rng.normal(size=cur.shape) * np.sqrt(step)[:, None]
            ta, start = start, start + step
            for det in detectors:
                det.observe(ta, start, cur, moved, cur_run)
            calm = ~ring
            settled.append(moved[calm])
            settled_run.append(cur_run[calm])
            held += np.bincount(settled_run[-1], minlength=runs)
            if not np.any(ring):
                break
            split = ring
            split[ring] = rng.uniform(size=int(ring.sum())) < 0.5
            cur = np.repeat(moved[split], 2, axis=0)
            cur_run = np.repeat(cur_run[split], 2)
            start = np.repeat(start[split], 2)
        pos = np.concatenate(settled) if settled else np.zeros((0, d))
        run = np.concatenate(settled_run) if settled_run else np.zeros(0, dtype=np.intp)
        if np.any(exploded):
            keep = ~exploded[run]
            pos, run = pos[keep], run[keep]
        count = np.bincount(run, minlength=runs)
        extinction[(count == 0) & np.isnan(extinction) & ~exploded] = t_next
        t_cur = t_next
    return [RunTrace(bool(count[r] > 0) and not exploded[r],
                     None if np.isnan(extinction[r]) else float(extinction[r]),
                     int(max_particles[r]), int(steps[r]), bool(exploded[r]))
            for r in range(runs)]


def simulate_branching(config, seed, detectors=()):
    """One forward run (a batch of one); streams movement segments to detectors.

    Within each reporting step, every particle's exponential clock is played
    out exactly (possibly several generations of events per step); motion
    between events is an exact Gaussian increment. Aborts as exploded when
    the processed segment count exceeds config.max_particle_steps.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return _forward_batch(config, 1, rng, detectors)[0]


def _forward_chunks(config, regions, runs, seed):
    """(first run index, hit flags (regions, chunk), traces) per lock-step
    chunk of forward runs, all drawn from run_rng(seed, 0)."""
    rng = run_rng(seed, 0)
    chunk = max(1, FORWARD_CHUNK_LINEAGES // config.n_particles)
    for first in range(0, runs, chunk):
        n = min(chunk, runs - first)
        det = GraphHitDetector(regions, n)
        yield first, det.hits, _forward_batch(config, n, rng, [det])


# --- reduced-tree engine (fixed-time slice) ---------------------------------------

TREE_CHUNK_RUNS = 128  # runs per lock-step chunk of the reduced-tree engine


def _slice_leaves(n_roots, rate, t_slice, d, runs, rng, settled):
    """Yield (run ids, positions) of the particles alive at t_slice, one batch
    per generation of the conditioned genealogy of ``runs`` runs.

    Each root survives with probability u = 2/(2 + rate t); surviving lines
    branch as a binary pure-birth process with rate rate/(2 + rate (t - s))
    and carry Brownian displacements along edges. Lineages are rows
    (birth time, run id, position), so one repeat per generation both drops
    the leaves and doubles the branching lines. The rows of runs the consumer
    marks in the boolean mask ``settled`` are dropped before the next draw.
    """
    if rate == 0.0:
        yield (np.repeat(np.arange(runs), n_roots),
               rng.normal(size=(runs * n_roots, d)) * math.sqrt(t_slice))
        return
    n_surv = rng.binomial(n_roots, 2.0 / (2.0 + rate * t_slice), size=runs)
    z = np.zeros((int(n_surv.sum()), d + 2))
    z[:, 1] = np.repeat(np.arange(runs), n_surv)
    while z.shape[0]:
        rem = t_slice - z[:, 0]
        tau = rem - (rng.uniform(size=rem.size) * (2.0 + rate * rem) - 2.0) / rate
        leaf = tau >= rem
        step = np.minimum(tau, rem)  # leaves move on to the slice
        z[:, 2:] += rng.normal(size=(rem.size, d)) * np.sqrt(step)[:, None]
        z[:, 0] += step
        run = z[:, 1].astype(np.intp)
        yield run[leaf], z[leaf, 2:]
        leaf |= settled[run]
        z = np.repeat(z, np.where(leaf, 0, 2), axis=0)


def reduced_slice_positions(n_roots, rate, t_slice, d, rng):
    """Positions at t_slice of all particles alive then, from n_roots at 0.

    A batch of one of the reduced-tree engine (``_slice_leaves``), which
    samples the conditioned genealogy directly. Equal in law to the forward
    engine's time-t population (motion is independent of genealogy); pinned
    by tests.
    """
    pts = [x for _, x in _slice_leaves(n_roots, rate, t_slice, d, 1, rng,
                                       np.zeros(1, dtype=bool))]
    return np.concatenate(pts) if pts else np.zeros((0, d))


def _slice_hits(config, t_slice, spatial, runs, seed):
    """(regions, runs) flags: does run r's population at t_slice meet region k.

    Leaves outside the union of the regions' bounding boxes are dropped
    before any membership test, which is exact since each box holds its set.
    A run that has hit every region is settled: its flags are final, so it
    retires before the next generation. The open runs keep fresh draws, so
    the law of every flag is unchanged.
    """
    if t_slice > config.horizon:
        raise ValueError("slice time beyond horizon")
    rng = run_rng(seed, 0)
    lo, hi = RegionUnion(tuple(spatial)).bounds()
    hit = np.zeros((len(spatial), runs), dtype=bool)
    for first in range(0, runs, TREE_CHUNK_RUNS):
        n = min(TREE_CHUNK_RUNS, runs - first)
        chunk, settled = hit[:, first:first + n], np.zeros(n, dtype=bool)
        for run, x in _slice_leaves(config.n_particles, config.branch_rate, t_slice,
                                    config.d, n, rng, settled):
            near = np.all((x >= lo) & (x <= hi), axis=1)
            run, x = run[near], x[near]
            for k, reg in enumerate(spatial):
                chunk[k, run[reg.mask(x)]] = True
            np.all(chunk, axis=0, out=settled)
    return hit


# --- count engine -------------------------------------------------------------------


def _advance_counts(counts, rate, delta, rng):
    """Exact population-count transition over a window of length delta.

    Per line: extinct with probability q = rate*delta/(2+rate*delta), else
    geometric offspring; totals via binomial survivors plus negative-binomial
    excess.
    """
    if rate == 0.0 or delta == 0.0:
        return counts.copy()
    q = rate * delta / (2.0 + rate * delta)
    survivors = rng.binomial(counts, 1.0 - q)
    total = survivors.astype(np.int64)
    m = survivors > 0
    total[m] += rng.negative_binomial(survivors[m], 1.0 - q)
    return total


def estimate_survival(config, times, runs, seed):
    """Empirical P[population alive at t] for each t, one trajectory per run.

    Steps the exact count law through the sorted time grid, so all requested
    times are read off a single population path per run.
    """
    times = sorted(float(t) for t in times)
    if times and times[0] < 0:
        raise ValueError(f"requested time {times[0]} is negative")
    if times and times[-1] > config.horizon:
        raise ValueError("requested time beyond horizon")
    rng = run_rng(seed, 0)
    counts = np.full(runs, config.n_particles, dtype=np.int64)
    t_cur = 0.0
    out = {}
    for t in times:
        counts = _advance_counts(counts, config.branch_rate, t - t_cur, rng)
        t_cur = t
        out[t] = HitEstimate.from_counts(int(np.sum(counts > 0)), runs)
    return out


# --- hit estimators -------------------------------------------------------------------


def _check_graph_regions(config, regions):
    if any(not getattr(reg, "spacetime", False) or reg.d != config.d for reg in regions):
        raise RegionError(f"graph hits need space-time regions of dimension {config.d}")


def estimate_graph_hits(config, regions, runs, seed):
    """Hit estimates for several space-time regions on one trajectory stream.

    Each region must be space-time of dimension config.d (else RegionError).
    One slice time in ``RegionUnion(regions).slices()`` selects the
    reduced-tree engine on the regions' spatial bases, anything else the
    forward engine; shared trajectories keep nested regions' flags monotone.
    """
    _check_graph_regions(config, regions)
    if not regions:
        return []
    try:
        slices = RegionUnion(tuple(regions)).slices()
    except RegionError:  # slices mixed with full-dimensional members
        slices = None
    if slices is not None and len(slices) == 1:
        bases = [reg.slices()[0][1] for reg in regions]
        hits = _slice_hits(config, slices[0][0], bases, runs, seed).sum(axis=1)
        return [HitEstimate.from_counts(int(h), runs) for h in hits]
    hits = np.zeros(len(regions), dtype=np.int64)
    exploded = 0
    for _, flags, traces in _forward_chunks(config, regions, runs, seed):
        lost = np.array([tr.exploded for tr in traces])
        hits += flags[:, ~lost].sum(axis=1)
        exploded += int(lost.sum())
    return [HitEstimate.from_counts(int(h), runs - exploded, exploded) for h in hits]


def estimate_graph_hit(config, region, runs, seed):
    """Hit estimate for the graph of the particle system against one region."""
    return estimate_graph_hits(config, [region], runs, seed)[0]


def graph_hit_run_records(config, region, runs, seed):
    """Per-run forward-engine records: index, hit flag, extinction time,
    max particles, exploded flag. Always runs the forward engine, since only
    it carries full traces; the stream and the region check are the ones
    ``estimate_graph_hits`` uses for non-slice regions.
    """
    _check_graph_regions(config, [region])
    return [{
        "run": first + i,
        "hit": bool(flags[0, i]) and not tr.exploded,
        "extinction_time": tr.extinction_time,
        "max_particles": tr.max_particles,
        "exploded": tr.exploded,
    } for first, flags, traces in _forward_chunks(config, [region], runs, seed)
        for i, tr in enumerate(traces)]


def write_run_records_csv(records, path):
    """Serialize per-run records with a header row."""
    with open(path, "w") as fh:
        fh.write("run,hit,extinction_time,max_particles,exploded\n")
        for rec in records:
            ext = "" if rec["extinction_time"] is None \
                else f"{rec['extinction_time']:.10g}"
            fh.write(f"{rec['run']},{int(rec['hit'])},{ext},"
                     f"{rec['max_particles']},{int(rec['exploded'])}\n")


def estimate_support_hit(config, t_slice, spatial_region, runs, seed):
    """P[support at time t_slice meets the spatial region]: ``estimate_graph_hit``
    of ``SliceOf(t_slice, spatial_region)``, one slice time, so the reduced tree."""
    return estimate_graph_hit(config, SliceOf(t_slice, spatial_region), runs, seed)


# --- Brownian range ---------------------------------------------------------------------


def _draw_starts(start_law, d, runs, rng):
    """Start positions from a point, a DiscreteMeasure, or a sampler.

    A callable receives (rng, runs) and returns an (runs, d) array; a
    DiscreteMeasure is sampled by its weights; anything array-like is a
    fixed start point.
    """
    if callable(start_law):
        pts = np.asarray(start_law(rng, runs), dtype=float)
        if pts.shape != (runs, d):
            raise ValueError("start sampler must return shape (runs, d)")
        return pts
    if hasattr(start_law, "weights") and hasattr(start_law, "coords"):
        idx = rng.choice(start_law.n, size=runs, p=start_law.weights)
        return np.asarray(start_law.coords, dtype=float)[idx]
    start = np.asarray(start_law, dtype=float)
    if start.shape != (d,):
        raise ValueError("start point dimension mismatch")
    return np.tile(start, (runs, 1))


WOS_EPS = 1e-6  # walk-on-spheres shell: a walker this close to a boundary is on it
WOS_I0_CHUNK = 1 << 14  # d = 2 walkers per np.i0 call, whose temporaries are many


def estimate_range_hit(d, start_law, region, dt, runs, seed, kill_radius=50.0):
    """Hit estimate for the range of a single Brownian path, by walk on spheres.

    Starts are drawn per run from ``start_law`` (a fixed point, a
    DiscreteMeasure, or a sampler). Each walker jumps to a uniform point on
    the largest sphere about it that stays clear of the region (radius
    ``region.distance``), which is where Brownian motion first leaves that
    ball (Muller 1956). A walker within WOS_EPS of the region has hit it.
    d >= 3 kills on reaching the kill radius, exactly: the sphere also
    stays inside B(0, kill_radius), and a walker within WOS_EPS of that
    sphere is killed; a start on or outside it is a ValueError. d = 2 kills
    at an independent Exp(1) time: a walker survives a sphere of radius r
    with probability E[e^-tau] = 1/I0(r sqrt 2) (Ciesielski & Taylor 1962),
    and is killed outright once r sqrt 2 > 700, where I0 would overflow. No
    time step is taken, so ``dt`` is unused; it stays in the signature for
    existing callers. All runs advance in one deterministic lock-step batch
    from run_rng(seed, 0).
    """
    if d < 2:
        raise ValueError("range hitting needs d >= 2")
    if region.spacetime or region.d != d:
        raise RegionError(f"range hitting needs a spatial region of dimension {d}")
    rng = run_rng(seed, 0)
    pos = _draw_starts(start_law, d, runs, rng)
    if d > 2 and np.any(np.linalg.norm(pos, axis=1) >= kill_radius):
        raise ValueError(f"kill_radius {kill_radius!r} must exceed the norm of every start")
    hits = 0
    while pos.shape[0]:
        r = region.distance(pos)
        near = r <= WOS_EPS
        hits += int(near.sum())
        if d == 2:
            z = r * math.sqrt(2.0)
            live = ~near & (z <= 700.0)
            z = z[live]
            u = rng.uniform(size=z.size)
            for lo in range(0, z.size, WOS_I0_CHUNK):
                u[lo:lo + WOS_I0_CHUNK] *= np.i0(z[lo:lo + WOS_I0_CHUNK])
            live[live] = u < 1.0
        else:
            room = kill_radius - np.linalg.norm(pos, axis=1)
            live = ~near & (room > WOS_EPS)
            r = np.minimum(r, room)
        pos, r = pos[live], r[live]
        step = rng.normal(size=pos.shape)
        pos += step * (r / np.linalg.norm(step, axis=1))[:, None]
    return HitEstimate.from_counts(hits, runs)
