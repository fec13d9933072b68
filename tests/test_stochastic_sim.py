import math

import numpy as np
import pytest

from parcap.region import (
    RegionError,
    RegionUnion,
    SliceOf,
    SpaceTimeBox,
    SpatialAnnulus,
    SpatialBall,
    TimeSliceBall,
)
from parcap.stochastic_sim import (
    BranchingConfig,
    GraphHitDetector,
    HitEstimate,
    estimate_graph_hit,
    estimate_graph_hits,
    estimate_range_hit,
    estimate_support_hit,
    estimate_survival,
    graph_hit_run_records,
    reduced_slice_positions,
    run_rng,
    simulate_branching,
    wilson_interval,
)


def theory_survival(n, rate, t):
    u = 2.0 / (2.0 + rate * t)
    return 1.0 - (1.0 - u) ** n


def test_config_validation():
    cfg = BranchingConfig(n_particles=10, dt=0.01, horizon=1.0, d=2)
    assert cfg.branch_rate == 40.0
    assert cfg.mass == pytest.approx(0.1)
    with pytest.raises(ValueError):
        BranchingConfig(n_particles=0, dt=0.01, horizon=1.0, d=2)
    with pytest.raises(ValueError):
        BranchingConfig(n_particles=1, dt=-0.1, horizon=1.0, d=2)


def test_wilson_interval_brackets_p_hat():
    lo, hi = wilson_interval(30, 100)
    assert lo < 0.3 < hi
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0


def test_single_particle_no_branching():
    cfg = BranchingConfig(n_particles=1, dt=0.05, horizon=1.0, d=2,
                          branch_rate=0.0)
    trace = simulate_branching(cfg, run_rng(3, 0))
    assert trace.survived
    assert trace.max_particles == 1


def test_forward_determinism():
    cfg = BranchingConfig(n_particles=20, dt=0.02, horizon=0.5, d=1)
    reg = TimeSliceBall(0.5, (0.0,), 0.5)
    outs = []
    for _ in range(2):
        det = GraphHitDetector([reg])
        trace = simulate_branching(cfg, run_rng(9, 4), detectors=[det])
        outs.append((trace.survived, trace.extinction_time,
                     trace.particle_steps, det.flags[0]))
    assert outs[0] == outs[1]


def test_forward_survival_matches_theory():
    cfg = BranchingConfig(n_particles=40, dt=0.05, horizon=0.75, d=1)
    hits = sum(simulate_branching(cfg, run_rng(13, r)).survived
               for r in range(400))
    lo, hi = wilson_interval(hits, 400)
    want = theory_survival(40, cfg.branch_rate, 0.75)
    margin = 0.5 * (hi - lo)
    assert abs(hits / 400 - want) <= 3.0 * margin


def test_count_engine_matches_theory_and_forward():
    cfg = BranchingConfig(n_particles=40, dt=0.05, horizon=0.75, d=1)
    est = estimate_survival(cfg, [0.75], 4000, seed=21)[0.75]
    want = theory_survival(40, cfg.branch_rate, 0.75)
    assert abs(est.p_hat - want) <= 3.0 * 0.5 * (est.ci_high - est.ci_low)


def test_mass_martingale():
    # critical branching conserves expected mass: E[count]/N = 1
    cfg = BranchingConfig(n_particles=200, dt=0.01, horizon=0.5, d=1)
    rng = np.random.default_rng(17)
    from parcap.stochastic_sim import _advance_counts
    counts = np.full(3000, 200, dtype=np.int64)
    counts = _advance_counts(counts, cfg.branch_rate, 0.5, rng)
    masses = counts / 200.0
    se = masses.std(ddof=1) / math.sqrt(masses.size)
    assert abs(masses.mean() - 1.0) <= 3.0 * se


def test_extinction_law_small_scale():
    cfg = BranchingConfig(n_particles=500, dt=0.01, horizon=2.0, d=1)
    out = estimate_survival(cfg, [0.5, 1.0, 2.0], 1500, seed=29)
    for t, est in out.items():
        want = 1.0 - math.exp(-1.0 / (2.0 * t))
        half = 0.5 * (est.ci_high - est.ci_low)
        assert abs(est.p_hat - want) <= 3.0 * half


def test_reduced_tree_matches_forward_on_slice_hit():
    cfg = BranchingConfig(n_particles=30, dt=0.01, horizon=0.5, d=2)
    reg = TimeSliceBall(0.5, (0.0, 0.0), 0.4)
    fast = estimate_graph_hit(cfg, reg, 400, seed=23)
    hits = 0
    for r in range(400):
        det = GraphHitDetector([reg])
        simulate_branching(cfg, run_rng(23, r), detectors=[det])
        hits += det.flags[0]
    lo, hi = wilson_interval(hits, 400)
    sep = abs(fast.p_hat - hits / 400)
    assert sep <= 0.5 * (hi - lo) + 0.5 * (fast.ci_high - fast.ci_low)


def test_reduced_tree_population_moments():
    rate, t, n = 120.0, 0.5, 25
    alive = 0
    total = 0
    for r in range(3000):
        pts = reduced_slice_positions(n, rate, t, 1, run_rng(31, r))
        alive += pts.shape[0] > 0
        total += pts.shape[0]
    # survival fraction and mean population both have exact references
    want = theory_survival(n, rate, t)
    se = math.sqrt(want * (1 - want) / 3000)
    assert abs(alive / 3000 - want) <= 4.0 * se
    assert abs(total / 3000 - n) / n < 0.15


def test_hit_monotone_in_region():
    cfg = BranchingConfig(n_particles=100, dt=0.01, horizon=1.0, d=2)
    regions = [TimeSliceBall(1.0, (0.0, 0.0), r) for r in (0.2, 0.4, 0.8)]
    ests = estimate_graph_hits(cfg, regions, 300, seed=41)
    assert ests[0].hits <= ests[1].hits <= ests[2].hits
    masses = [e.implied_excursion_mass for e in ests]
    assert masses[0] <= masses[1] <= masses[2]


def test_forward_hit_monotone_nested_boxes():
    cfg = BranchingConfig(n_particles=25, dt=0.02, horizon=0.6, d=1)
    small = SpaceTimeBox(0.2, 0.4, (0.1,), (0.4,))
    large = SpaceTimeBox(0.1, 0.5, (0.0,), (0.6,))
    ests = estimate_graph_hits(cfg, [small, large], 200, seed=43)
    assert ests[0].hits <= ests[1].hits


def test_unreachable_region_never_hit():
    cfg = BranchingConfig(n_particles=20, dt=0.02, horizon=0.3, d=1)
    far = SpaceTimeBox(0.1, 0.25, (500.0,), (501.0,))
    est = estimate_graph_hit(cfg, far, 100, seed=47)
    assert est.hits == 0
    assert est.implied_excursion_mass == 0.0


def test_doubling_n_particles_scheme_stability():
    reg = TimeSliceBall(1.0, (0.0, 0.0), 0.5)
    cfg1 = BranchingConfig(n_particles=1000, dt=0.01, horizon=1.0, d=2)
    cfg2 = BranchingConfig(n_particles=2000, dt=0.01, horizon=1.0, d=2)
    m1 = estimate_graph_hit(cfg1, reg, 1500, seed=53).implied_excursion_mass
    m2 = estimate_graph_hit(cfg2, reg, 1500, seed=54).implied_excursion_mass
    assert abs(m2 - m1) / m1 < 0.15


def test_support_hit_full_space_equals_survival():
    cfg = BranchingConfig(n_particles=300, dt=0.01, horizon=1.0, d=2)
    everything = SpatialBall((0.0, 0.0), 1e6)
    est = estimate_support_hit(cfg, 1.0, everything, 1200, seed=59)
    want = theory_survival(300, cfg.branch_rate, 1.0)
    half = 0.5 * (est.ci_high - est.ci_low)
    assert abs(est.p_hat - want) <= 3.0 * half


def test_support_hit_empty_region():
    cfg = BranchingConfig(n_particles=50, dt=0.01, horizon=0.5, d=2)
    nowhere = SpatialBall((500.0, 0.0), 0.1)
    est = estimate_support_hit(cfg, 0.5, nowhere, 150, seed=61)
    assert est.hits == 0


def test_support_hit_annulus_and_union_regions():
    cfg = BranchingConfig(n_particles=100, dt=0.01, horizon=1.0, d=2)
    ann = SpatialAnnulus((0.0, 0.0), 0.2, 0.6)
    est = estimate_support_hit(cfg, 1.0, ann, 200, seed=67)
    assert 0.0 < est.p_hat < 1.0


def test_graph_hit_slice_of_region():
    cfg = BranchingConfig(n_particles=100, dt=0.01, horizon=1.0, d=2)
    reg = SliceOf(1.0, SpatialAnnulus((0.0, 0.0), 0.2, 0.6))
    ball = TimeSliceBall(1.0, (0.0, 0.0), 0.6)
    ests = estimate_graph_hits(cfg, [reg, ball], 200, seed=69)
    assert ests[0].hits <= ests[1].hits  # annulus sits inside the ball


def test_exploded_runs_excluded_with_count():
    cfg = BranchingConfig(n_particles=50, dt=0.005, horizon=1.0, d=1,
                          max_particle_steps=40)
    box = SpaceTimeBox(0.5, 1.0, (-10.0,), (10.0,))
    est = estimate_graph_hit(cfg, box, 30, seed=71)
    assert est.exploded == 30
    assert est.runs == 0


def test_range_hit_ball_oracle_d3():
    est = estimate_range_hit(3, [2.0, 0.0, 0.0], SpatialBall((0.0,) * 3, 1.0),
                             dt=1e-3, runs=4000, seed=73)
    half = 0.5 * (est.ci_high - est.ci_low)
    # continuum value with the kill radius R: (1/2 - 1/R) / (1 - 1/R)
    assert abs(est.p_hat - 0.5) <= 3.0 * half + 0.011


def test_range_hit_rejects_space_time_region():
    with pytest.raises(ValueError, match="spatial region"):
        estimate_range_hit(2, [2.0, 0.0], TimeSliceBall(1.0, (0.0, 0.0), 1.0),
                           dt=1e-3, runs=10, seed=1)


def test_range_hit_rejects_region_of_other_dimension():
    with pytest.raises(ValueError, match="spatial region of dimension 2"):
        estimate_range_hit(2, [2.0, 0.0], SpatialBall((0.0,), 1.0),
                           dt=1e-3, runs=10, seed=1)


@pytest.mark.parametrize("start_law", [
    [2.0, 0.0, 0.0],
    # norms uniform on [1.2, 2.4]: some starts inside each kill sphere, some not
    lambda rng, runs: np.tile([0.0, 0.0, 2.0], (runs, 1)) * rng.uniform(0.6, 1.2, (runs, 1)),
], ids=["point", "sampler"])
@pytest.mark.parametrize("kill_radius", [1.5, 2.0, -5.0])
def test_range_hit_refuses_a_start_on_or_outside_the_kill_sphere(start_law, kill_radius):
    # every walker would be killed before its first step, so p_hat would read 0
    with pytest.raises(ValueError, match="kill_radius"):
        estimate_range_hit(3, start_law, SpatialBall((0.0,) * 3, 1.0),
                           dt=1e-3, runs=200, seed=1, kill_radius=kill_radius)


@pytest.mark.parametrize("radii", [(1.0, 0.5), (0.5, 1.0)])
def test_range_hit_union_equals_its_largest_ball(radii):
    # the union's distance is its members' minimum, which is the outer ball's
    union = RegionUnion(tuple(SpatialBall((0.0,) * 3, r) for r in radii))
    ball = SpatialBall((0.0,) * 3, 1.0)
    got, want = (estimate_range_hit(3, [2.0, 0.0, 0.0], reg, dt=1e-3, runs=2000,
                                    seed=5, kill_radius=50.0) for reg in (union, ball))
    assert got == want


def test_range_hit_d2_has_no_kill_sphere():
    est = estimate_range_hit(2, [2.0, 0.0], SpatialBall((0.0, 0.0), 1.0),
                             dt=1e-3, runs=200, seed=1, kill_radius=1.5)
    assert est.p_hat > 0.0


def test_range_hit_start_inside():
    est = estimate_range_hit(3, [0.0, 0.0, 0.0], SpatialBall((0.0,) * 3, 1.0),
                             dt=1e-3, runs=50, seed=79)
    assert est.p_hat == 1.0
    assert est.implied_excursion_mass == math.inf


def test_range_hit_dt_halving_stability():
    reg = SpatialBall((0.0, 0.0, 0.0), 1.0)
    a = estimate_range_hit(3, [1.5, 0.0, 0.0], reg, dt=2e-3, runs=4000, seed=83)
    b = estimate_range_hit(3, [1.5, 0.0, 0.0], reg, dt=1e-3, runs=4000, seed=84)
    width = (a.ci_high - a.ci_low) + (b.ci_high - b.ci_low)
    assert abs(a.p_hat - b.p_hat) <= width


def test_range_hit_d2_killed_at_exponential_time():
    reg = SpatialBall((0.0, 0.0), 0.5)
    est = estimate_range_hit(2, [1.5, 0.0], reg, dt=1e-3, runs=1500, seed=89)
    assert 0.0 < est.p_hat < 1.0


def test_range_hit_d2_count_is_pinned():
    # 50,000 walkers: more than one chunk of the survival draw's I0, whose
    # values do not depend on how the live walkers are split
    est = estimate_range_hit(2, [2.0, 0.0], SpatialBall((0.0, 0.0), 1.0), dt=1e-3,
                             runs=50_000, seed=1)
    assert est.hits == 8874


def test_range_hit_start_law_variants():
    from parcap.energy_kernel import DiscreteMeasure
    reg = SpatialBall((0.0, 0.0, 0.0), 1.0)
    # discrete start law splitting mass across two radii: the hit probability
    # averages the per-start values (r/|x0|) = 1/2 and 1/4
    law = DiscreteMeasure.spatial([[2.0, 0.0, 0.0], [4.0, 0.0, 0.0]],
                                  [0.5, 0.5])
    est = estimate_range_hit(3, law, reg, dt=1e-3, runs=4000, seed=91,
                             kill_radius=200.0)
    half = 0.5 * (est.ci_high - est.ci_low)
    assert abs(est.p_hat - 0.375) <= 3.0 * half + 0.02

    def sampler(rng, runs):
        return np.tile([2.0, 0.0, 0.0], (runs, 1))

    a = estimate_range_hit(3, sampler, reg, dt=1e-2, runs=500, seed=92)
    b = estimate_range_hit(3, [2.0, 0.0, 0.0], reg, dt=1e-2, runs=500, seed=92)
    assert a == b  # constant sampler consumes the same draws as a fixed point


def test_per_run_records_csv(tmp_path):
    from parcap.stochastic_sim import graph_hit_run_records, write_run_records_csv
    cfg = BranchingConfig(n_particles=15, dt=0.02, horizon=0.4, d=1)
    reg = TimeSliceBall(0.4, (0.0,), 0.5)
    records = graph_hit_run_records(cfg, reg, 25, seed=31)
    assert len(records) == 25
    assert all(r["max_particles"] >= 1 for r in records)
    hits = sum(r["hit"] for r in records)
    est = estimate_graph_hits(cfg, [reg], 25, seed=31)[0]
    # reduced-engine estimate and forward traces see different randomness,
    # but the record schema and range must hold
    assert 0 <= hits <= 25 and 0 <= est.hits <= 25
    out = tmp_path / "runs.csv"
    write_run_records_csv(records, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "run,hit,extinction_time,max_particles,exploded"
    assert len(lines) == 26


def test_intersection_equivalence_band_d3():
    # fixed-time support hits vs Brownian-range hits from a uniform start law
    # on the unit ball: equivalent up to constants, so the ratio band over a
    # small set family stays bounded (engineering gate 10)
    sets = [SpatialBall((0.0, 0.0, 0.0), 0.2),
            SpatialBall((0.0, 0.0, 0.0), 0.5),
            SpatialAnnulus((0.0, 0.0, 0.0), 0.4, 0.7),
            SpatialBall((0.45, 0.0, 0.0), 0.3)]
    cfg = BranchingConfig(n_particles=2000, dt=0.01, horizon=1.0, d=3)

    def uniform_ball(rng, runs):
        pts = np.empty((runs, 3))
        got = 0
        while got < runs:
            cand = rng.uniform(-1.0, 1.0, size=(2 * (runs - got), 3))
            cand = cand[np.sum(cand * cand, axis=1) < 1.0]
            take = min(cand.shape[0], runs - got)
            pts[got:got + take] = cand[:take]
            got += take
        return pts

    ratios = []
    for reg in sets:
        supp = estimate_support_hit(cfg, 1.0, reg, 800, seed=111)
        rng_hit = estimate_range_hit(3, uniform_ball, reg, dt=2e-3, runs=2500,
                                     seed=112)
        assert supp.p_hat > 0 and rng_hit.p_hat > 0
        ratios.append(supp.p_hat / rng_hit.p_hat)
    assert max(ratios) / min(ratios) <= 10.0


def test_stochastic_determinism():
    cfg = BranchingConfig(n_particles=200, dt=0.01, horizon=1.0, d=2)
    reg = TimeSliceBall(1.0, (0.0, 0.0), 0.4)
    a = estimate_graph_hit(cfg, reg, 200, seed=97)
    b = estimate_graph_hit(cfg, reg, 200, seed=97)
    assert a == b
    s1 = estimate_survival(cfg, [0.5, 1.0], 500, seed=97)
    s2 = estimate_survival(cfg, [0.5, 1.0], 500, seed=97)
    assert s1 == s2
    r1 = estimate_range_hit(3, [2.0, 0, 0], SpatialBall((0.0,) * 3, 1.0),
                            dt=1e-2, runs=300, seed=97)
    r2 = estimate_range_hit(3, [2.0, 0, 0], SpatialBall((0.0,) * 3, 1.0),
                            dt=1e-2, runs=300, seed=97)
    assert r1 == r2


def _bessel_k0(z):
    # K0(z) = int_0^inf exp(-z cosh u) du; the tail beyond u = 10 is below 1e-900
    u = np.linspace(0.0, 10.0, 20001)
    return np.trapezoid(np.exp(-z * np.cosh(u)), u)


def test_range_hit_unbiased_d3_at_ten_times_acceptance_runs():
    runs, kill = 200_000, 200.0
    est = estimate_range_hit(3, [2.0, 0.0, 0.0], SpatialBall((0.0,) * 3, 1.0),
                             dt=1e-3, runs=runs, seed=131, kill_radius=kill)
    want = (0.5 - 1.0 / kill) / (1.0 - 1.0 / kill)
    sigma = math.sqrt(want * (1.0 - want) / runs)
    assert abs(est.p_hat - want) <= 3.0 * sigma


def test_range_hit_unbiased_d2_at_ten_times_acceptance_runs():
    # hit before an independent Exp(1) time: K0(sqrt2 |x|) / K0(sqrt2 r)
    runs = 200_000
    est = estimate_range_hit(2, [2.0, 0.0], SpatialBall((0.0, 0.0), 1.0),
                             dt=1e-3, runs=runs, seed=137)
    want = _bessel_k0(2.0 * math.sqrt(2.0)) / _bessel_k0(math.sqrt(2.0))
    assert _bessel_k0(1.0) == pytest.approx(0.42102443824070834, rel=1e-12)
    sigma = math.sqrt(want * (1.0 - want) / runs)
    assert abs(est.p_hat - want) <= 3.0 * sigma


def test_run_records_and_estimate_share_one_stream():
    # N = 1000 splits 20 runs into lock-step chunks of 8; the step cap
    # explodes some runs but not all
    from parcap.stochastic_sim import graph_hit_run_records
    cfg = BranchingConfig(n_particles=1000, dt=0.01, horizon=0.1, d=1,
                          branch_rate=20.0, max_particle_steps=12_000)
    box = SpaceTimeBox(0.05, 0.1, (0.3,), (0.5,))
    records = graph_hit_run_records(cfg, box, 20, seed=5)
    est = estimate_graph_hit(cfg, box, 20, seed=5)
    assert [r["run"] for r in records] == list(range(20))
    exploded = sum(r["exploded"] for r in records)
    assert 0 < exploded < 20 and exploded == est.exploded
    assert sum(r["hit"] for r in records) == est.hits
    assert est.runs == 20 - exploded


def test_batched_forward_keeps_per_run_tallies():
    from parcap.stochastic_sim import _forward_batch
    cfg = BranchingConfig(n_particles=30, dt=0.05, horizon=0.5, d=2)
    traces = _forward_batch(cfg, 40, run_rng(3, 0))
    for tr in traces:
        assert tr.max_particles >= 30 and tr.particle_steps >= 30
        assert (tr.extinction_time is None) == tr.survived
        if not tr.survived:
            assert 0 < tr.extinction_time <= 0.5
    assert len({tr.particle_steps for tr in traces}) > 1


def test_rate_zero_engines_follow_one_brownian_particle():
    # no branching: the reduced tree is one leaf and the count never moves
    cfg = BranchingConfig(1, 0.01, 1.0, 1, branch_rate=0.0)
    est = estimate_support_hit(cfg, 1.0, SpatialBall((0.0,), 0.5), 20000, seed=3)
    want = math.erf(0.5 / math.sqrt(2.0))  # P(|B_1| < 0.5) = 0.382925
    assert abs(est.p_hat - want) <= 3.0 * 0.5 * (est.ci_high - est.ci_low)
    cfg = BranchingConfig(1, 0.01, 2.0, 1, branch_rate=0.0)
    out = estimate_survival(cfg, [0.5, 2.0], 1000, seed=3)
    assert [out[t].p_hat for t in (0.5, 2.0)] == [1.0, 1.0]


def test_support_hit_full_space_matches_survival_law_at_100k_runs():
    # every run that survives to the slice hits the whole space, so it settles
    # at its first generation of leaves
    cfg = BranchingConfig(n_particles=2000, dt=0.01, horizon=1.0, d=2)
    runs = 100_000
    est = estimate_support_hit(cfg, 1.0, SpatialBall((0.0, 0.0), 1e6), runs, seed=139)
    want = theory_survival(2000, cfg.branch_rate, 1.0)
    half = 0.5 * (est.ci_high - est.ci_low)
    assert est.runs == runs
    assert abs(est.p_hat - want) <= 3.0 * half


def test_retiring_engine_matches_run_by_run_populations():
    # reference without retirement: whole populations from the single-run call
    n, t, runs = 40, 1.0, 4000
    cfg = BranchingConfig(n_particles=n, dt=0.01, horizon=t, d=2)
    balls = [SpatialBall((0.0, 0.0), r) for r in (0.2, 0.5, 0.9)] \
        + [SpatialBall((0.6, 0.0), 0.25)]
    ref = np.zeros(len(balls), dtype=np.int64)
    for r in range(runs):
        pts = reduced_slice_positions(n, cfg.branch_rate, t, 2, run_rng(141, r))
        ref += [bool(np.any(b.mask(pts))) for b in balls]
    ests = estimate_graph_hits(cfg, [SliceOf(t, b) for b in balls], runs, seed=142)
    for est, hits in zip(ests, ref):
        lo, hi = wilson_interval(int(hits), runs)
        sep = abs(est.p_hat - hits / runs)
        assert sep <= 0.5 * (hi - lo) + 0.5 * (est.ci_high - est.ci_low)


def test_slice_hit_flags_nested_per_run():
    from parcap.stochastic_sim import _slice_hits
    cfg = BranchingConfig(n_particles=200, dt=0.01, horizon=1.0, d=2)
    balls = [SpatialBall((0.0, 0.0), 0.3), SpatialBall((0.3, 0.0), 0.2),
             SpatialBall((0.0, 0.0), 0.6), SpatialBall((-0.5, 0.4), 0.3)]
    hit = _slice_hits(cfg, 1.0, balls, 600, seed=143)
    assert 0 < hit[0].sum() < hit[2].sum() < 600 and 0 < hit[3].sum()
    inside = [(0, 2), (1, 2)]  # (ball, ball that contains it)
    for k, j in inside:
        assert not np.any(hit[k] & ~hit[j])


def test_reduced_slice_positions_pinned_output():
    # the single-run call returns the whole population; its draws are pinned
    import hashlib
    for args, seed, shape, digest in [
        ((10, 4.0, 1.0, 2), 7, (12, 2),
         "4b493ec9c0eff748e45481404929e8d789af03427793ba07bc4b6e3f753ad86a"),
        ((200, 800.0, 1.0, 3), 13, (564, 3),
         "62ea622c35000a09f62cf54d9b18a90c1cd344a4fa82eb77cdefd596d1b9b5db"),
    ]:
        pts = reduced_slice_positions(*args, run_rng(seed, 0))
        assert pts.shape == shape
        assert hashlib.sha256(pts.tobytes()).hexdigest() == digest


def test_estimator_edge_cases():
    cfg = BranchingConfig(n_particles=20, dt=0.01, horizon=1.0, d=2)
    assert estimate_graph_hits(cfg, [], 10, seed=1) == []
    with pytest.raises(ValueError, match="-0.5"):
        estimate_support_hit(cfg, -0.5, SpatialBall((0.0, 0.0), 1.0), 10, seed=1)
    with pytest.raises(ValueError, match="-0.25"):
        estimate_survival(cfg, [0.5, -0.25], 10, seed=1)
    with pytest.raises(ValueError, match="requested time beyond horizon"):
        estimate_survival(cfg, [0.5, 1.5], 10, seed=1)


def test_graph_hits_refuse_region_of_other_dimension():
    cfg = BranchingConfig(n_particles=20, dt=0.02, horizon=1.0, d=2)
    box = SpaceTimeBox(0.5, 1.0, (-0.3,), (0.3,))
    with pytest.raises(RegionError, match="space-time regions of dimension 2"):
        estimate_graph_hit(cfg, box, 20, seed=1)
    with pytest.raises(RegionError, match="space-time regions of dimension 2"):
        graph_hit_run_records(cfg, box, 20, seed=1)


def test_support_hit_is_the_slice_graph_hit():
    cfg = BranchingConfig(n_particles=100, dt=0.01, horizon=1.0, d=2)
    ann = SpatialAnnulus((0.0, 0.0), 0.2, 0.6)
    est = estimate_support_hit(cfg, 1.0, ann, 300, seed=151)
    # pinned output of the reduced-tree stream at seed 151
    assert est == HitEstimate(300, 101, 0.33666666666666667, 0.28555447659565275,
                              0.3919090438702742, 0.41047764993170865, 0)
    assert est == estimate_graph_hit(cfg, SliceOf(1.0, ann), 300, seed=151)
    with pytest.raises(RegionError, match="slice time 0.0 must be positive"):
        estimate_support_hit(cfg, 0.0, ann, 10, seed=1)


def test_one_time_family_takes_the_tree_engine():
    from parcap.stochastic_sim import _slice_hits
    cfg = BranchingConfig(n_particles=100, dt=0.01, horizon=1.0, d=2)
    ann = SpatialAnnulus((0.0, 0.0), 0.2, 0.6)
    pair = (SpatialBall((0.5, 0.0), 0.2), SpatialBall((-0.5, 0.0), 0.2))
    family = [TimeSliceBall(1.0, (0.0, 0.0), 0.4), SliceOf(1.0, ann),
              RegionUnion(tuple(SliceOf(1.0, b) for b in pair))]
    bases = [SpatialBall((0.0, 0.0), 0.4), ann, RegionUnion(pair)]
    want = _slice_hits(cfg, 1.0, bases, 300, seed=157).sum(axis=1)
    assert 0 < want.min() and want.max() < 300
    assert [e.hits for e in estimate_graph_hits(cfg, family, 300, seed=157)] \
        == want.tolist()


@pytest.mark.parametrize("family", [
    [TimeSliceBall(0.5, (0.0, 0.0), 0.3), TimeSliceBall(1.0, (0.0, 0.0), 0.3)],
    [TimeSliceBall(1.0, (0.0, 0.0), 0.3), SpaceTimeBox(0.5, 1.0, (-0.3, -0.3), (0.3, 0.3))],
])
def test_other_families_take_the_forward_engine(family):
    # detectors draw no randomness, so each region alone replays the same runs
    cfg = BranchingConfig(n_particles=20, dt=0.02, horizon=1.0, d=2)
    ests = estimate_graph_hits(cfg, family, 40, seed=163)
    for est, reg in zip(ests, family):
        recs = graph_hit_run_records(cfg, reg, 40, seed=163)
        assert 0 < est.hits == sum(rec["hit"] for rec in recs) < 40
