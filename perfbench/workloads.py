"""The benchmark's workloads: operations, their oracles, and traced probes.

Each workload builds its inputs from the workload seed, runs a fixed list of
operations through parcap's user-facing calls, and checks every output
against a closed-form value or a window the paper's results give. An
operation's checks are ``(ok, detail)`` pairs; it fails if any is false or
if it raises.

``probe`` runs only in a traced run, after the timed passes. It repeats the
work through the finer public functions (discretize, assemble, minimize,
kernel batches, Hermite primitives) to split time and counts by layer, so
nothing inside ``src/`` needs tracing.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from parcap import (
    CAP_PRIME,
    PARABOLIC,
    BranchingConfig,
    RegionUnion,
    SliceOf,
    SpaceTimeBox,
    SpatialAnnulus,
    SpatialBall,
    Thorn,
    TimeSliceBall,
    capacity,
    capacity_growth_profile,
    discretize,
    estimate_graph_hit,
    estimate_range_hit,
    estimate_survival,
    newtonian,
    verify_duality,
)
from parcap.capacity_solver import CapacityResult, assemble_kernel_matrix, minimize_energy
from parcap.energy_kernel import (
    DiscreteMeasure,
    cap_prime_kernel_batch,
    newtonian_kernel_batch,
    parabolic_kernel_batch,
)
from parcap.hermite_ops import (
    BoxProfile,
    BumpProfile,
    hardy_check,
    hermite_orthogonality,
    hermite_value,
    lambda_family_on_hermite,
    lambda_numeric,
    multi_indices,
    operator_norm_probe,
    verification_report,
)
from parcap.stochastic_sim import estimate_graph_hits, run_rng, simulate_branching

DIAG_SAMPLES = 256          # assemble_kernel_matrix default; enters the pair counts
SUPPORT_TOL = 1e-10         # atoms verify_duality re-integrates pairwise
KERNEL_SAMPLE_PAIRS = 16384  # cell pairs timed per kernel kind
RANGE_D3_EXACT = (0.5 - 1.0 / 200.0) / (1.0 - 1.0 / 200.0)  # start |x|=2, ball 1, kill 200


# --- oracles ----------------------------------------------------------------------

def within(label, value, lo, hi):
    return lo <= value <= hi, f"{label}={value:.6g} in [{lo:.6g}, {hi:.6g}]"


def near_exact(label, est, exact, half_widths=3.0):
    """|p_hat - exact| within ``half_widths`` Wilson half-widths."""
    slack = half_widths * 0.5 * (est.ci_high - est.ci_low)
    return within(label, est.p_hat, exact - slack, exact + slack)


def monotone(label, values, strict=False):
    pairs = list(zip(values, values[1:]))
    ok = all(b > a for a, b in pairs) if strict else all(b >= a for a, b in pairs)
    word = "increasing" if strict else "nondecreasing"
    return ok, f"{label} {word}: {[round(v, 6) for v in values]}"


def converged(res):
    return bool(res.converged), f"converged={res.converged} ({res.iterations} iterations)"


def certificate_checks(res, rep):
    return [converged(res),
            within("min_potential", rep.min_potential, 0.9, 1.1),
            within("norm_sq_ratio", rep.norm_sq_ratio, 0.8, 1.25)]


def exploded_check(est, max_frac=0.01):
    total = est.runs + est.exploded
    return est.exploded <= max_frac * total, f"exploded {est.exploded}/{total}"


# --- capacity probes ----------------------------------------------------------------

@dataclass(frozen=True)
class Case:
    """One capacity solve: region, kernel, grid pitch and FW tolerance."""

    name: str
    region: object
    kind: object
    resolution: float
    tol: float


def _add(metrics, key, value):
    metrics[key] = metrics.get(key, 0.0) + value


def _timed(fn):
    t = perf_counter()
    out = fn()
    return out, perf_counter() - t


def probe_cases(cases, seed, certify, metrics):
    """Stage times and counts of each solve, through the finer public calls.

    Returns ``{kernel tag: (kind, clouds)}`` for the kernel-rate probe.
    """
    clouds = {}
    for case in cases:
        cloud, dt = _timed(lambda: discretize(case.region, case.resolution))
        _add(metrics, "region.discretize_s", dt)
        n = cloud.n
        _add(metrics, "region.cells", n)
        km, dt = _timed(lambda: assemble_kernel_matrix(cloud, case.kind, seed=seed))
        _add(metrics, "capacity_solver.assemble_s", dt)
        _add(metrics, "energy_kernel.offdiag_pairs", n * (n - 1) // 2)
        _add(metrics, "energy_kernel.diag_pairs", n * DIAG_SAMPLES)
        metrics["capacity_solver.matrix_mb"] = max(
            metrics.get("capacity_solver.matrix_mb", 0.0), n * n * 8 / 2 ** 20)
        (e_min, w, gap, iters, conv), dt = _timed(lambda: minimize_energy(km, tol=case.tol))
        _add(metrics, "capacity_solver.solve_s", dt)
        _add(metrics, "capacity_solver.fw_iterations", iters)
        _add(metrics, "capacity_solver.support_atoms", int(np.sum(w > SUPPORT_TOL)))
        if certify:
            res = CapacityResult(1.0 / e_min, e_min,
                                 DiscreteMeasure(cloud.times, cloud.coords, w),
                                 gap, iters, conv, case.tol, km.provenance)
            _, dt = _timed(lambda: verify_duality(res, cloud, matrix=km))
            _add(metrics, "capacity_solver.certify_s", dt)
        if case.kind.tag == "newtonian":
            diag = np.diag(km.entries)
            metrics.setdefault("capacity_solver.diag_spread", float(diag.std() / diag.mean()))
        else:
            eig = np.linalg.eigvalsh(km.entries)
            metrics[f"capacity_solver.min_eig.{case.name}"] = float(eig[0])
            metrics[f"capacity_solver.neg_eigs.{case.name}"] = int(np.sum(eig < 0))
        clouds.setdefault(case.kind.tag, (case.kind, []))[1].append(cloud)
    return clouds


def probe_kernels(clouds, seed, metrics):
    """ns per pair of each public *_kernel_batch on the workload's own cell pairs."""
    rng = np.random.default_rng([seed, 1])
    for tag, (kind, group) in clouds.items():
        t1, x1, t2, x2 = [], [], [], []
        for cloud in group:
            i = rng.integers(0, cloud.n, size=KERNEL_SAMPLE_PAIRS // len(group))
            j = (i + rng.integers(1, cloud.n, size=i.size)) % cloud.n
            x1.append(cloud.coords[i])
            x2.append(cloud.coords[j])
            if cloud.times is not None:
                t1.append(cloud.times[i])
                t2.append(cloud.times[j])
        x1, x2 = np.concatenate(x1), np.concatenate(x2)
        if tag == "newtonian":
            def call():
                newtonian_kernel_batch(x1, x2, kind.d)
        else:
            t1, t2 = np.concatenate(t1), np.concatenate(t2)
            batch = parabolic_kernel_batch if tag == "parabolic" else cap_prime_kernel_batch

            def call():
                batch(t1, x1, t2, x2)
        times = [_timed(call)[1] for _ in range(3)]
        metrics[f"energy_kernel.{tag}_ns_per_pair"] = \
            statistics.median(times) / x1.shape[0] * 1e9


# --- workloads ----------------------------------------------------------------------

THEOREM1_SLICES = [TimeSliceBall(1.0, (0.0, 0.0), r) for r in (0.2, 0.35, 0.5, 0.7)] \
    + [TimeSliceBall(1.0, (0.5, 0.0), 0.3)]


class SliceCapacity:
    """Certified parabolic capacities of d=2 slices at t0=1."""

    name = "slice-capacity"

    def __init__(self, seed):
        self.seed = seed
        names = ["b020", "b035", "b050", "b070", "off030"]
        cases = [Case(n, reg, PARABOLIC, max(reg.radius / 8.0, 0.02), 1e-6)
                 for n, reg in zip(names, THEOREM1_SLICES)]
        cases += [
            Case("annulus", SliceOf(1.0, SpatialAnnulus((0.0, 0.0), 0.4, 0.7)),
                 PARABOLIC, 0.06, 1e-6),
            Case("union", SliceOf(1.0, RegionUnion((SpatialBall((-0.5, 0.0), 0.25),
                                                    SpatialBall((0.55, 0.0), 0.25)))),
                 PARABOLIC, 0.06, 1e-6),
            Case("b090", TimeSliceBall(1.0, (0.0, 0.0), 0.9), PARABOLIC, 0.06, 1e-6),
        ]
        self.cases = cases

    def warmup(self):
        reg = TimeSliceBall(1.0, (0.0, 0.0), 0.2)
        res = capacity(reg, PARABOLIC, 0.1, diag_samples=16, seed=self.seed)
        verify_duality(res, discretize(reg, 0.1))

    def operations(self):
        return [(c.name, self._certified(c)) for c in self.cases]

    def _certified(self, case):
        def op(tr):
            with tr.span("capacity_solver", "capacity"):
                res = capacity(case.region, case.kind, case.resolution,
                               tol=case.tol, seed=self.seed)
            with tr.span("region", "discretize"):
                cloud = discretize(case.region, case.resolution)
            with tr.span("capacity_solver", "verify_duality"):
                rep = verify_duality(res, cloud)
            return certificate_checks(res, rep)
        return op

    def probe(self, tracer):
        metrics = {}
        clouds = probe_cases(self.cases, self.seed, True, metrics)
        probe_kernels(clouds, self.seed, metrics)
        return metrics


class GridCapacity:
    """Grids filling every coordinate: Newtonian balls, d=1 box, thorn profile."""

    name = "grid-capacity"
    THORN = Thorn("constant", 1.0, 0.0, 0.5, 1)
    THORN_EPS = (0.2, 0.1, 0.05)
    THORN_PITCH_FACTOR = 0.5
    THORN_TOL = 1e-5

    def __init__(self, seed):
        self.seed = seed
        box = SpaceTimeBox(0.5, 1.5, (-1.0,), (1.0,))
        self.ball1 = Case("ball1", SpatialBall((0.0, 0.0, 0.0), 1.0), newtonian(3), 0.1, 1e-5)
        self.ball2 = Case("ball2", SpatialBall((0.0, 0.0, 0.0), 2.0), newtonian(3), 0.2, 1e-5)
        self.box_cases = [Case("box_parabolic", box, PARABOLIC, 0.05, 1e-6),
                          Case("box_cap_prime", box, CAP_PRIME, 0.05, 1e-6)]
        th = self.THORN
        self.thorn_cases = [
            Case(f"thorn_eps{eps}", Thorn(th.profile, th.param, eps, th.t_hi, th.d),
                 PARABOLIC, self.THORN_PITCH_FACTOR * eps, self.THORN_TOL)
            for eps in self.THORN_EPS]
        self._cap_ball1 = math.nan

    def warmup(self):
        capacity(SpatialBall((0.0, 0.0, 0.0), 1.0), newtonian(3), 0.5, seed=self.seed)
        capacity(SpaceTimeBox(0.5, 1.5, (-1.0,), (1.0,)), PARABOLIC, 0.5,
                 diag_samples=16, seed=self.seed)

    def operations(self):
        return ([("ball1", self._ball1), ("ball2", self._ball2)]
                + [(c.name, self._converged(c)) for c in self.box_cases]
                + [("thorn", self._thorn)])

    def _solve(self, tr, case):
        with tr.span("capacity_solver", "capacity"):
            return capacity(case.region, case.kind, case.resolution, tol=case.tol,
                            seed=self.seed)

    def _ball1(self, tr):
        res = self._solve(tr, self.ball1)
        self._cap_ball1 = res.capacity
        return [converged(res), within("cap(B(0,1))", res.capacity, 0.95, 1.05)]

    def _ball2(self, tr):
        res = self._solve(tr, self.ball2)
        return [converged(res),
                within("cap(B(0,2))/cap(B(0,1))", res.capacity / self._cap_ball1,
                       1.96, 2.04)]

    def _converged(self, case):
        def op(tr):
            res = self._solve(tr, case)
            cap = res.capacity
            return [converged(res),
                    (0.0 < cap < math.inf, f"capacity={cap:.6g} finite and positive")]
        return op

    def _thorn(self, tr):
        with tr.span("capacity_solver", "capacity_growth_profile"):
            rows = capacity_growth_profile(
                self.THORN, list(self.THORN_EPS), pitch_factor=self.THORN_PITCH_FACTOR,
                tol=self.THORN_TOL, seed=self.seed)
        errors = [r["error"] for r in rows if r["error"]]
        checks = [(not errors, f"profile errors: {errors}")]
        if not errors:
            checks.append(monotone("capacity as eps falls",
                                   [r["capacity"] for r in rows], strict=True))
        return checks

    def probe(self, tracer):
        metrics = {}
        clouds = probe_cases([self.ball1, self.ball2, *self.box_cases, *self.thorn_cases],
                             self.seed, False, metrics)
        probe_kernels(clouds, self.seed, metrics)
        return metrics


class ParticleMC:
    """stochastic_sim only: forward, reduced-tree, range and count engines."""

    name = "particle-mc"
    FORWARD_RUNS = 25
    TREE_RUNS = 4000
    RANGE_D3_RUNS = 20000
    RANGE_D2_RUNS = 200000
    SURVIVAL_RUNS = 20000
    SURVIVAL_TIMES = (0.5, 1.0, 2.0)
    ENGINES = ("forward", "tree", "range_d3", "range_d2", "survival")

    def __init__(self, seed):
        self.seed = seed
        self.box = SpaceTimeBox(0.5, 1.5, (-1.0,), (1.0,))
        self.forward_cfg = BranchingConfig(n_particles=200, dt=0.01, horizon=1.5, d=1)
        self.tree_cfg = BranchingConfig(n_particles=2000, dt=0.01, horizon=1.0, d=2)
        self.survival_cfg = BranchingConfig(n_particles=2000, dt=0.01, horizon=2.0, d=2)
        self.runs = dict(forward=self.FORWARD_RUNS, tree=self.TREE_RUNS,
                         range_d3=self.RANGE_D3_RUNS, range_d2=self.RANGE_D2_RUNS,
                         survival=self.SURVIVAL_RUNS)
        self._forward = None
        self._range_d3 = None

    def warmup(self):
        estimate_graph_hit(BranchingConfig(20, 0.01, 1.5, 1), self.box, 2, self.seed)
        estimate_graph_hits(self.tree_cfg, THEOREM1_SLICES, 5, self.seed)
        estimate_range_hit(3, [2.0, 0.0, 0.0], SpatialBall((0.0, 0.0, 0.0), 1.0),
                           dt=1e-3, runs=100, seed=self.seed, kill_radius=200.0)
        estimate_range_hit(2, [2.0, 0.0], SpatialBall((0.0, 0.0), 1.0), dt=1e-3,
                           runs=100, seed=self.seed)
        estimate_survival(self.survival_cfg, self.SURVIVAL_TIMES, 100, self.seed)

    def operations(self):
        return [("forward_box", self._forward_op), ("tree_slices", self._tree_op),
                ("range_d3", self._range_d3_op), ("range_d2", self._range_d2_op),
                ("survival", self._survival_op)]

    def _forward_op(self, tr):
        with tr.span("stochastic_sim", "forward"):
            est = estimate_graph_hit(self.forward_cfg, self.box, self.FORWARD_RUNS,
                                     self.seed)
        self._forward = est
        return [exploded_check(est)]

    def _tree_op(self, tr):
        with tr.span("stochastic_sim", "tree"):
            ests = estimate_graph_hits(self.tree_cfg, THEOREM1_SLICES, self.TREE_RUNS,
                                       self.seed)
        return [monotone("p_hat over concentric slice balls",
                         [e.p_hat for e in ests[:4]]),
                exploded_check(ests[0])]

    def _range_d3_op(self, tr):
        with tr.span("stochastic_sim", "range_d3"):
            est = estimate_range_hit(3, [2.0, 0.0, 0.0], SpatialBall((0.0, 0.0, 0.0), 1.0),
                                     dt=1e-3, runs=self.RANGE_D3_RUNS, seed=self.seed,
                                     kill_radius=200.0)
        self._range_d3 = est
        return [near_exact("range d=3 p_hat", est, RANGE_D3_EXACT)]

    def _range_d2_op(self, tr):
        # No closed-form window: the Euler step bias is of the same order as the
        # Wilson half-width here. The operation fails only if it raises.
        with tr.span("stochastic_sim", "range_d2"):
            estimate_range_hit(2, [2.0, 0.0], SpatialBall((0.0, 0.0), 1.0), dt=1e-3,
                               runs=self.RANGE_D2_RUNS, seed=self.seed)
        return []

    def _survival_op(self, tr):
        with tr.span("stochastic_sim", "survival"):
            out = estimate_survival(self.survival_cfg, self.SURVIVAL_TIMES,
                                    self.SURVIVAL_RUNS, self.seed)
        return [near_exact(f"survival t={t}", est, 1.0 - math.exp(-1.0 / (2.0 * t)))
                for t, est in sorted(out.items())]

    def probe(self, tracer):
        metrics = {}
        spent = tracer.seconds_by(lambda s: s.name)
        for engine in self.ENGINES:
            metrics[f"stochastic_sim.{engine}_s"] = spent[engine]
            metrics[f"stochastic_sim.{engine}_runs_per_s"] = self.runs[engine] / spent[engine]
        # the documented stream split: run r of seed s draws from run_rng(s, r)
        segments = sum(simulate_branching(self.forward_cfg, run_rng(self.seed, r)).particle_steps
                       for r in range(self.FORWARD_RUNS))
        metrics["stochastic_sim.forward_segments"] = segments
        metrics["stochastic_sim.forward_segments_per_s"] = segments / spent["forward"]
        est = self._forward
        metrics["stochastic_sim.effective_run_frac"] = est.runs / (est.runs + est.exploded)
        est = self._range_d3
        sigma = math.sqrt(RANGE_D3_EXACT * (1.0 - RANGE_D3_EXACT) / est.runs)
        metrics["stochastic_sim.range_d3_z"] = (est.p_hat - RANGE_D3_EXACT) / sigma
        return metrics


class OperatorVerify:
    """hermite_ops: the verification report at the CLI defaults, fewer trials."""

    name = "operator-verify"
    TRIALS = 50  # CLI default 200; the other report inputs keep their defaults
    MAX_DEGREE = 6
    D = 2
    GRID_N = 5
    PROBES = (("lambda0", None), ("lambda1", None), ("lambda2i", None),
              ("lambda3i", None), ("e_t_lambda", 0.5), ("e_t_lambda", 1.0),
              ("e_t_lambda", 2.0))

    def __init__(self, seed):
        self.seed = seed
        self._report = None

    def warmup(self):
        prof = BumpProfile(0.2, 1.2, amplitude=1.0)
        lambda_numeric(lambda s, y: prof(np.full(y.shape[0], s)), prof.support, 1.0,
                       np.zeros(1))
        hermite_orthogonality((1,), (1,), 1.0)
        operator_norm_probe("lambda0", 1, 2, self.D, seed=self.seed)
        hardy_check(0.0, BoxProfile([0.0, 1.0], [1.0]))

    def operations(self):
        return [("verification_report", self._report_op)]

    def _report_op(self, tr):
        with tr.span("hermite_ops", "verification_report"):
            rep = verification_report(seed=self.seed, trials=self.TRIALS,
                                      max_degree=self.MAX_DEGREE, d=self.D,
                                      grid_n=self.GRID_N)
        self._report = rep
        failing = [b["operator"] for b in rep["bounds"] if not b["pass"]]
        failing += [i["name"] for i in rep["identities"] if not i["pass"]]
        if not rep["hardy"]["pass"]:
            failing.append("hardy")
        return [(bool(rep["ok"]), f"verification ok={rep['ok']} failing={failing}")]

    def probe(self, tracer):
        """Times the public primitives on the inputs verification_report uses."""
        metrics = {}
        t = perf_counter()
        for dim in (1, 2):
            prof = BumpProfile(0.2, 1.2, amplitude=1.0)
            for n in multi_indices(dim, 4):
                def f(s, y, n=n):
                    he = hermite_value(n, y / math.sqrt(s))
                    return he * s ** (-0.5 * sum(n)) * prof(np.full(y.shape[0], s))
                for tt in np.linspace(0.4, 2.0, self.GRID_N):
                    for xv in np.linspace(-1.5, 1.5, self.GRID_N):
                        x = np.full(dim, xv)
                        lambda_numeric(f, prof.support, tt, x)
                        lambda_family_on_hermite("lambda", n, prof, tt, x)
        metrics["hermite_ops.identity_s"] = perf_counter() - t
        t = perf_counter()
        for dim in (1, 2):
            idx = multi_indices(dim, 6)
            for tt in (0.5, 1.0, 3.0):
                for a, n in enumerate(idx):
                    for m in idx[a:]:
                        hermite_orthogonality(n, m, tt)
        metrics["hermite_ops.orthogonality_s"] = perf_counter() - t
        rng = np.random.default_rng(self.seed)
        t = perf_counter()
        for which, T in self.PROBES:
            operator_norm_probe(which, self.TRIALS, self.MAX_DEGREE, self.D, T=T,
                                seed=int(rng.integers(2 ** 31)))
        metrics["hermite_ops.probe_s"] = perf_counter() - t
        t = perf_counter()
        for _ in range(100):
            k = rng.uniform(-0.9, 4.0)
            edges = np.sort(rng.uniform(0.05, 3.0, size=4))
            hardy_check(k, BoxProfile(edges, rng.uniform(-2.0, 2.0, size=3)))
        metrics["hermite_ops.hardy_s"] = perf_counter() - t
        for b in self._report["bounds"]:
            label = b["operator"].replace("(T=", "_T").rstrip(")")
            metrics[f"hermite_ops.tightness.{label}"] = b["max_quotient"] / b["bound"]
        return metrics


WORKLOADS = {w.name: w for w in (SliceCapacity, GridCapacity, ParticleMC, OperatorVerify)}
