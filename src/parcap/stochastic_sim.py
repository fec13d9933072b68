"""Branching Brownian motion approximation of the measure-valued process,
plus single-path Brownian range hitting.

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

Cross-engine agreement is pinned by tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .region import RegionError, contains

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


def wilson_interval(hits, runs, z=1.96):
    """95% Wilson score interval for a binomial proportion."""
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


def run_rng(seed, run_index):
    """Documented splitting rule: one generator per (seed, run index)."""
    return np.random.default_rng([int(seed), int(run_index)])


# --- forward engine -------------------------------------------------------------


@dataclass
class RunTrace:
    survived: bool
    extinction_time: float | None
    max_particles: int
    particle_steps: int
    exploded: bool
    counts_at: dict = field(default_factory=dict)


class GraphHitDetector:
    """Streaming space-time hit flags over a list of regions.

    Time-slice regions use linear interpolation at slice crossings; all other
    space-time regions use endpoint membership checks at the reporting pitch.
    """

    def __init__(self, regions):
        self.regions = list(regions)
        self.flags = [False] * len(self.regions)

    def observe(self, ta, tb, pa, pb):
        for idx, reg in enumerate(self.regions):
            if not self.flags[idx] and reg.graph_segment_hits(ta, tb, pa, pb):
                self.flags[idx] = True


def simulate_branching(config, seed, detectors=(), count_times=()):
    """One forward run; streams movement segments to detectors.

    Within each reporting step, every particle's exponential clock is played
    out exactly (possibly several generations of events per step); motion
    between events is an exact Gaussian increment. Aborts as exploded when
    the processed segment count exceeds config.max_particle_steps.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    lam = config.branch_rate
    d = config.d
    grid = np.unique(np.concatenate([
        np.arange(0.0, config.horizon, config.dt),
        np.asarray(list(count_times), dtype=float),
        [config.horizon],
    ]))
    grid = grid[(grid >= 0) & (grid <= config.horizon)]
    pos = np.zeros((config.n_particles, d))
    t_cur = 0.0
    steps = 0
    max_particles = config.n_particles
    counts_at = {}
    extinction = None
    for t_next in grid[1:]:
        if pos.shape[0] == 0:
            break
        # pending lineages: start time offset and remaining window delta
        delta = np.full(pos.shape[0], t_next - t_cur)
        start = np.full(pos.shape[0], t_cur)
        cur = pos
        settled = []
        while cur.shape[0]:
            steps += cur.shape[0]
            if steps > config.max_particle_steps:
                return RunTrace(False, None, max_particles, steps, True, counts_at)
            if lam > 0:
                ring = rng.uniform(size=cur.shape[0]) < -np.expm1(-lam * delta)
            else:
                ring = np.zeros(cur.shape[0], dtype=bool)
            calm = ~ring
            if np.any(calm):
                moved = cur[calm] + rng.normal(
                    size=(int(calm.sum()), d)) * np.sqrt(delta[calm])[:, None]
                for det in detectors:
                    det.observe(start[calm], start[calm] + delta[calm],
                                cur[calm], moved)
                settled.append(moved)
            if not np.any(ring):
                break
            # exact ring time within the window: truncated exponential
            u = rng.uniform(size=int(ring.sum()))
            tau = -np.log1p(u * np.expm1(-lam * delta[ring])) / lam
            moved = cur[ring] + rng.normal(
                size=(int(ring.sum()), d)) * np.sqrt(tau)[:, None]
            for det in detectors:
                det.observe(start[ring], start[ring] + tau, cur[ring], moved)
            split = rng.uniform(size=moved.shape[0]) < 0.5
            kids = np.repeat(moved[split], 2, axis=0)
            kid_start = np.repeat(start[ring][split] + tau[split], 2)
            cur = kids
            start = kid_start
            delta = t_next - kid_start
            max_particles = max(max_particles, cur.shape[0]
                                + sum(s.shape[0] for s in settled))
        pos = np.concatenate(settled) if settled else np.zeros((0, d))
        if pos.shape[0] == 0 and extinction is None:
            extinction = t_next
        t_cur = t_next
        for ct in count_times:
            if abs(t_next - ct) < 1e-12:
                counts_at[ct] = pos.shape[0]
    survived = pos.shape[0] > 0
    return RunTrace(survived, extinction, max_particles, steps, False, counts_at)


# --- reduced-tree engine (fixed-time slice) ---------------------------------------


def reduced_slice_positions(n_roots, rate, t_slice, d, rng):
    """Positions at t_slice of all particles alive then, from n_roots at 0.

    Samples the conditioned genealogy directly: each root survives with
    probability u = 2/(2 + rate t); surviving lines branch as a binary
    pure-birth process with rate rate/(2 + rate (t - s)) and carry Brownian
    displacements along edges. Equal in law to the forward engine's time-t
    population (motion is independent of genealogy); pinned by tests.
    """
    if rate == 0.0:
        return rng.normal(size=(n_roots, d)) * math.sqrt(t_slice)
    u = 2.0 / (2.0 + rate * t_slice)
    n_surv = int(rng.binomial(n_roots, u))
    if n_surv == 0:
        return np.zeros((0, d))
    s = np.zeros(n_surv)
    pos = np.zeros((n_surv, d))
    leaves = []
    while s.size:
        rem = t_slice - s
        uu = rng.uniform(size=s.size)
        tau = rem - (uu * (2.0 + rate * rem) - 2.0) / rate
        is_leaf = tau >= rem
        if np.any(is_leaf):
            nl = int(is_leaf.sum())
            leaves.append(pos[is_leaf]
                          + rng.normal(size=(nl, d)) * np.sqrt(rem[is_leaf])[:, None])
        go = ~is_leaf
        ng = int(go.sum())
        if ng == 0:
            break
        stepped = pos[go] + rng.normal(size=(ng, d)) * np.sqrt(tau[go])[:, None]
        pos = np.repeat(stepped, 2, axis=0)
        s = np.repeat(s[go] + tau[go], 2)
    return np.concatenate(leaves) if leaves else np.zeros((0, d))


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
    if np.any(m):
        total[m] += rng.negative_binomial(survivors[m], 1.0 - q)
    return total


def estimate_survival(config, times, runs, seed):
    """Empirical P[population alive at t] for each t, one trajectory per run.

    Steps the exact count law through the sorted time grid, so all requested
    times are read off a single population path per run.
    """
    times = sorted(float(t) for t in times)
    if times and times[-1] > config.horizon:
        raise ValueError("requested time beyond horizon")
    rng = np.random.default_rng([int(seed), 0])
    counts = np.full(runs, config.n_particles, dtype=np.int64)
    t_cur = 0.0
    out = {}
    for t in times:
        counts = _advance_counts(counts, config.branch_rate, t - t_cur, rng)
        t_cur = t
        out[t] = HitEstimate.from_counts(int(np.sum(counts > 0)), runs)
    return out


# --- hit estimators -------------------------------------------------------------------


def _slice_family(regions):
    """(t0, spatial regions) if every region is a slice at one common time."""
    t0 = None
    spatial = []
    for reg in regions:
        try:
            slices = reg.slices()
        except RegionError:  # slices mixed with full-dimensional members
            return None
        if slices is None or len(slices) != 1:
            return None
        t, base = slices[0]
        if t0 is None:
            t0 = t
        elif abs(t - t0) > 1e-15:
            return None
        spatial.append(base)
    return t0, spatial


def estimate_graph_hits(config, regions, runs, seed):
    """Hit estimates for several space-time regions on one trajectory stream.

    Families of time-slice regions at a common slice time go through the
    reduced-tree engine (exact positions at the slice); anything else runs
    the forward engine with a streaming detector. Shared trajectories make
    hit flags monotone across nested regions by construction.
    """
    for reg in regions:
        if not getattr(reg, "spacetime", False):
            raise ValueError("graph hits need space-time regions")
    fam = _slice_family(regions)
    hits = np.zeros(len(regions), dtype=int)
    exploded = 0
    if fam is not None:
        t0, spatial = fam
        if t0 > config.horizon:
            raise ValueError("slice time beyond horizon")
        for r in range(runs):
            rng = run_rng(seed, r)
            pts = reduced_slice_positions(config.n_particles, config.branch_rate,
                                          t0, config.d, rng)
            if pts.shape[0] == 0:
                continue
            for k, sreg in enumerate(spatial):
                if np.any(contains(sreg, pts)):
                    hits[k] += 1
    else:
        for r in range(runs):
            det = GraphHitDetector(regions)
            trace = simulate_branching(config, run_rng(seed, r), detectors=[det])
            if trace.exploded:
                exploded += 1
                continue
            hits += np.asarray(det.flags, dtype=int)
    effective = runs - exploded
    return [HitEstimate.from_counts(int(h), effective, exploded) for h in hits]


def estimate_graph_hit(config, region, runs, seed):
    """Hit estimate for the graph of the particle system against one region."""
    return estimate_graph_hits(config, [region], runs, seed)[0]


def graph_hit_run_records(config, region, runs, seed):
    """Per-run forward-engine records: index, hit flag, extinction time,
    max particles, exploded flag. Always runs the forward engine, since only
    it carries full traces.
    """
    records = []
    for r in range(runs):
        det = GraphHitDetector([region])
        trace = simulate_branching(config, run_rng(seed, r), detectors=[det])
        records.append({
            "run": r,
            "hit": bool(det.flags[0]) and not trace.exploded,
            "extinction_time": trace.extinction_time,
            "max_particles": trace.max_particles,
            "exploded": trace.exploded,
        })
    return records


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
    """P[support at time t_slice meets the spatial region]."""
    if t_slice > config.horizon:
        raise ValueError("slice time beyond horizon")
    hits = 0
    for r in range(runs):
        rng = run_rng(seed, r)
        pts = reduced_slice_positions(config.n_particles, config.branch_rate,
                                      t_slice, config.d, rng)
        if pts.shape[0] and np.any(contains(spatial_region, pts)):
            hits += 1
    return HitEstimate.from_counts(hits, runs)


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


def estimate_range_hit(d, start_law, region, dt, runs, seed, kill_radius=50.0):
    """Hit estimate for the range of a single Brownian path.

    Starts are drawn per run from ``start_law`` (a fixed point, a
    DiscreteMeasure, or a sampler). d = 2 kills at an independent Exp(1)
    time; d >= 3 kills on exit from the kill radius. Steps adapt far from
    the target (step spread stays a small fraction of the free distance),
    with exact segment-sphere interpolation near it; runs advance in one
    deterministic lock-step batch.
    """
    if d < 2:
        raise ValueError("range hitting needs d >= 2")
    if region.spacetime:
        raise ValueError("range hitting needs a spatial region")
    rng = np.random.default_rng([int(seed), 0])
    pos = _draw_starts(start_law, d, runs, rng)
    alive = np.ones(runs, dtype=bool)
    hit = np.zeros(runs, dtype=bool)
    inside = region.distance(pos) == 0.0
    hit[inside] = True
    alive[inside] = False
    if d == 2:
        remaining = rng.exponential(1.0, size=runs)
    while np.any(alive):
        idx = np.flatnonzero(alive)
        p = pos[idx]
        dist = region.distance(p)
        h = np.maximum(dt, (dist / 6.0) ** 2)
        if d == 2:
            h = np.minimum(h, remaining[idx])
            h = np.maximum(h, 1e-12)
        p_new = p + rng.normal(size=p.shape) * np.sqrt(h)[:, None]
        seg_hit = region.segment_hits(p, p_new)
        hit[idx[seg_hit]] = True
        alive[idx[seg_hit]] = False
        live = ~seg_hit
        moved = idx[live]
        pos[moved] = p_new[live]
        if d == 2:
            remaining[moved] -= h[live]
            dead = moved[remaining[moved] <= 1e-12]
            alive[dead] = False
        else:
            out = moved[np.linalg.norm(pos[moved], axis=1) > kill_radius]
            alive[out] = False
    return HitEstimate.from_counts(int(hit.sum()), runs)
