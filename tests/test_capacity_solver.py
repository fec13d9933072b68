import dataclasses
import hashlib
import math

import numpy as np
import pytest
from conftest import traced_peak

from parcap import capacity_solver, energy_kernel
from parcap.capacity_solver import (
    PAIR_CHUNK,
    CapacityResult,
    KernelMatrix,
    LatticeKernel,
    _fill_pairwise,
    _lattice_index,
    _level_pair_chunks,
    _time_levels,
    _pair_values,
    _stencil_table,
    assemble_kernel_matrix,
    capacity,
    capacity_growth_profile,
    capacity_on_cloud,
    minimize_energy,
    translation_noninvariance_demo,
    verify_duality,
)
from parcap.energy_kernel import (
    CAP_PRIME,
    PARABOLIC,
    DiscreteMeasure,
    cap_prime_kernel_batch,
    mutual_kernel,
    newtonian,
    newtonian_kernel,
    parabolic_kernel_batch,
    reduced_pair_sum,
)
from parcap.heat_kernel import log_heat_density
from parcap.quadrature import gauss_legendre
from parcap.region import (
    RegionUnion,
    SliceOf,
    SpaceTimeBox,
    SpatialAnnulus,
    SpatialBall,
    Thorn,
    TimeSliceBall,
    discretize,
)


def test_minimize_identity_matrix():
    f, w, gap, _, conv = minimize_energy(np.eye(2), tol=1e-10)
    assert conv
    assert f == pytest.approx(0.5, abs=1e-9)
    assert w == pytest.approx([0.5, 0.5], abs=1e-6)


def test_minimize_symmetric_coupling():
    f, w, *_ = minimize_energy(np.array([[2.0, 1.0], [1.0, 2.0]]), tol=1e-10)
    assert f == pytest.approx(1.5, abs=1e-9)
    assert w == pytest.approx([0.5, 0.5], abs=1e-6)


def test_minimize_weighted_diagonal():
    # min w^2 + 4 (1-w)^2 at w = 4/5; grid-search oracle
    grid = np.linspace(0.0, 1.0, 200001)
    oracle = np.min(grid ** 2 + 4.0 * (1 - grid) ** 2)
    f, w, *_ = minimize_energy(np.diag([1.0, 4.0]), tol=1e-12)
    assert f == pytest.approx(oracle, abs=1e-8)
    assert w == pytest.approx([0.8, 0.2], abs=1e-6)


def test_assemble_offdiagonal_is_center_kernel():
    cloud = discretize(TimeSliceBall(1.0, (0.0, 0.0), 0.45), 0.4)
    km = assemble_kernel_matrix(cloud, PARABOLIC, diag_samples=16, seed=1)
    n = cloud.n
    assert n >= 2
    for i in range(n):
        for j in range(i + 1, n):
            ref = mutual_kernel((1.0, cloud.coords[i]), (1.0, cloud.coords[j]))
            assert km.entries[i, j] == pytest.approx(ref, rel=1e-7)


def test_minimize_nonconverged_flag():
    rng = np.random.default_rng(1)
    m = rng.uniform(0.0, 1.0, (40, 40))
    K = m @ m.T + 40 * np.eye(40)
    _, _, gap, iters, converged = minimize_energy(K, tol=1e-12, max_iter=2)
    assert iters == 2
    assert not converged


def test_assemble_deterministic():
    cloud = discretize(SpatialBall((0.0, 0.0), 0.5), 0.2)
    a = assemble_kernel_matrix(cloud, newtonian(2), diag_samples=64, seed=9)
    b = assemble_kernel_matrix(cloud, newtonian(2), diag_samples=64, seed=9)
    assert np.array_equal(a.entries, b.entries)
    c = assemble_kernel_matrix(cloud, newtonian(2), diag_samples=64, seed=10)
    assert not np.array_equal(a.entries, c.entries)


def test_diagonal_self_energy_scaling():
    # Newtonian d=3 cube self-energy scales like 1/h: high-sample MC oracle
    rng = np.random.default_rng(3)
    vals = {}
    for h in (0.2, 0.1):
        u = rng.uniform(-h / 2, h / 2, (200_000, 3))
        v = rng.uniform(-h / 2, h / 2, (200_000, 3))
        vals[h] = float(np.mean(1.0 / np.linalg.norm(u - v, axis=1)))
    assert 1.8 <= vals[0.1] / vals[0.2] <= 2.2
    # the assembled diagonal tracks the same oracle
    cloud = discretize(SpatialBall((0.0, 0.0, 0.0), 0.3), 0.2)
    km = assemble_kernel_matrix(cloud, newtonian(3), diag_samples=4096, seed=0)
    assert km.entries[0, 0] == pytest.approx(vals[0.2], rel=0.1)


def test_newtonian_ball_capacity_with_sphere_oracle():
    # continuum oracle: surface-pair quadrature of the uniform sphere measure,
    # E = 1/(4r) int_0^pi sin(th)/sin(th/2) dth = 1/r, so cap(B(0,r)) = r
    th = np.linspace(1e-9, math.pi, 20001)
    integrand = np.sin(th) / (2.0 * 1.0 * np.sin(th / 2.0))
    oracle_energy = 0.5 * np.trapezoid(integrand, th)
    assert oracle_energy == pytest.approx(1.0, abs=1e-6)
    res = capacity(SpatialBall((0.0, 0.0, 0.0), 1.0), newtonian(3), 0.15,
                   tol=1e-5, seed=2)
    assert res.converged
    assert abs(res.capacity - 1.0) < 0.05


def test_newtonian_homogeneity():
    r1 = capacity(SpatialBall((0.0, 0.0, 0.0), 1.0), newtonian(3), 0.2,
                  tol=1e-5, seed=2)
    r2 = capacity(SpatialBall((0.0, 0.0, 0.0), 2.0), newtonian(3), 0.4,
                  tol=1e-5, seed=2)
    assert r2.capacity / r1.capacity == pytest.approx(2.0, rel=0.02)


def test_result_invariants():
    res = capacity(TimeSliceBall(1.0, (0.0, 0.0), 0.4), PARABOLIC, 0.1,
                   tol=1e-6, seed=4)
    w = res.equilibrium.weights
    assert np.all(w >= 0)
    assert abs(w.sum() - 1.0) < 1e-10
    assert res.capacity * res.energy_min == pytest.approx(1.0, abs=1e-10)
    cloud = discretize(TimeSliceBall(1.0, (0.0, 0.0), 0.4), 0.1)
    km = assemble_kernel_matrix(cloud, PARABOLIC, diag_samples=256, seed=4)
    assert res.energy_min == pytest.approx(float(w @ km.entries @ w), abs=1e-10)


def test_cap_prime_capacity_runs():
    from parcap.energy_kernel import CAP_PRIME
    res = capacity(TimeSliceBall(1.0, (0.0, 0.0), 0.4), CAP_PRIME, 0.1,
                   tol=1e-5, seed=2)
    assert res.converged
    assert 0.0 < res.capacity < math.inf
    with pytest.raises(ValueError):
        capacity(SpatialBall((0.0, 0.0), 0.4), CAP_PRIME, 0.1)


def test_parabolic_monotonicity_nested_balls():
    small = capacity(TimeSliceBall(1.0, (0.0, 0.0), 0.3), PARABOLIC, 0.05,
                     tol=1e-5, seed=6)
    large = capacity(TimeSliceBall(1.0, (0.0, 0.0), 0.6), PARABOLIC, 0.05,
                     tol=1e-5, seed=6)
    assert small.capacity <= large.capacity * (1.0 + 1e-4)


def test_refinement_stability():
    coarse = capacity(TimeSliceBall(1.0, (0.0, 0.0), 0.5), PARABOLIC, 0.1,
                      tol=1e-5, seed=3)
    fine = capacity(TimeSliceBall(1.0, (0.0, 0.0), 0.5), PARABOLIC, 0.05,
                    tol=1e-5, seed=3)
    assert abs(fine.capacity - coarse.capacity) / coarse.capacity < 0.10


def test_duality_two_cell_symmetric():
    # symmetric two-cell problem: exact optimum is (1/2, 1/2) and the
    # potential is flat, so min_potential = 1 exactly at the optimum
    cloud = discretize(TimeSliceBall(1.0, (0.0, 0.0), 0.45), 0.4)
    assert cloud.n == 4  # symmetric quartet
    res = capacity_on_cloud(cloud, PARABOLIC, tol=1e-8, seed=8)
    rep = verify_duality(res, cloud)
    assert 0.9 <= rep.min_potential <= 1.1


def test_duality_single_cell_exact():
    cloud = discretize(TimeSliceBall(1.0, (0.0, 0.0), 0.2), 0.5)
    assert cloud.n == 1
    res = capacity_on_cloud(cloud, PARABOLIC, tol=1e-8, seed=8)
    rep = verify_duality(res, cloud)
    assert rep.min_potential == pytest.approx(1.0, abs=1e-9)


def test_growth_profile_cone_nondecreasing():
    thorn = Thorn("constant", 1.0, 0.0, 0.5, d=1)
    rows = capacity_growth_profile(thorn, [0.2, 0.1, 0.05], pitch_factor=0.5,
                                   tol=1e-4, seed=1, diag_samples=64)
    caps = [r["capacity"] for r in rows]
    assert all(r["error"] == "" for r in rows)
    # set grows as eps decreases; small slack for the per-eps rediscretization
    assert all(b >= a * 0.98 for a, b in zip(caps, caps[1:]))


def test_growth_profile_thin_thorn_grows_slower():
    cone = capacity_growth_profile(Thorn("constant", 1.0, 0.0, 0.5, d=2),
                                   [0.2, 0.1], pitch_factor=0.7, tol=1e-4,
                                   seed=1, diag_samples=64)
    thin = capacity_growth_profile(Thorn("power", 1.0, 0.0, 0.5, d=2),
                                   [0.2, 0.1], pitch_factor=0.7, tol=1e-4,
                                   seed=1, diag_samples=64)
    cone_growth = cone[1]["capacity"] / cone[0]["capacity"]
    thin_growth = thin[1]["capacity"] / thin[0]["capacity"]
    assert thin_growth < cone_growth


def test_growth_profile_empty_and_bad_eps():
    thorn = Thorn("constant", 1.0, 0.0, 0.5, d=1)
    assert capacity_growth_profile(thorn, []) == []
    rows = capacity_growth_profile(thorn, [0.9], tol=1e-4)
    assert rows[0]["error"] != ""


def test_translation_noninvariance_time_shift():
    reg = TimeSliceBall(1.0, (0.0, 0.0), 0.4)
    base, shifted = translation_noninvariance_demo(reg, (1.0, [0.0, 0.0]),
                                                   PARABOLIC, 0.1, tol=1e-6,
                                                   seed=5)
    tol_band = 10 * (base.gap + shifted.gap)
    assert abs(base.capacity - shifted.capacity) > tol_band
    # zero shift is bit-for-bit identical
    b2, s2 = translation_noninvariance_demo(reg, (0.0, [0.0, 0.0]), PARABOLIC,
                                            0.1, tol=1e-6, seed=5)
    assert b2.capacity == s2.capacity
    assert np.array_equal(b2.equilibrium.weights, s2.equilibrium.weights)


def test_translation_noninvariance_space_shift():
    reg = TimeSliceBall(1.0, (0.0, 0.0), 0.4)
    base, shifted = translation_noninvariance_demo(reg, (0.0, [3.0, 0.0]),
                                                   PARABOLIC, 0.1, tol=1e-6,
                                                   seed=5)
    assert abs(base.capacity - shifted.capacity) / base.capacity > 0.05


def test_translation_leaving_domain_raises():
    reg = TimeSliceBall(1.0, (0.0, 0.0), 0.4)
    with pytest.raises(Exception):
        translation_noninvariance_demo(reg, (-1.0, [0.0, 0.0]), PARABOLIC,
                                       0.1, seed=5)


def test_triangle_chunks_match_row_loop():
    # one level: the same pairs, order and chunk boundaries as a per-row loop
    # over whole rows
    for n in (0, 1, 2, 5, 37):
        for target in (1, 7, 40, 1_500_000):
            rows = max(1, target // max(n, 1))
            ref = []
            for i0 in range(0, n, rows):
                pairs = [(i, j) for i in range(i0, min(n, i0 + rows))
                         for j in range(i + 1, n)]
                if pairs:
                    ref.append(pairs)
            got = [list(zip(ii.tolist(), jj.tolist()))
                   for ii, jj in _level_pair_chunks([np.arange(n)], target)]
            assert got == ref


def test_minimize_raises_when_objective_fails_to_decrease():
    # a NaN entry makes the step's objective NaN, which the monotonicity
    # check must reject as an explicit error (it survives python -O)
    with pytest.raises(RuntimeError, match="did not decrease"):
        minimize_energy(np.array([[1.0, np.nan], [np.nan, 2.0]]), tol=1e-8)


@pytest.mark.parametrize("region, kind", [
    (TimeSliceBall(1.0, (0.0, 0.0), 0.45), CAP_PRIME),
    (SpatialBall((0.0, 0.0, 0.0), 0.5), newtonian(3)),
], ids=["cap_prime", "newtonian"])
def test_duality_rejects_non_parabolic_results(region, kind):
    cloud = discretize(region, 0.4)
    res = capacity_on_cloud(cloud, kind, tol=1e-6, seed=2, diag_samples=16)
    with pytest.raises(ValueError, match="parabolic"):
        verify_duality(res, cloud)


def _direct_gl96_pair_integral(t1, x1, t2, x2):
    """One pair at a time: GL-96 on (0, t^t') of the reduced integrand."""
    xg, wg = gauss_legendre(96)
    tmin = min(t1, t2)
    s = 0.5 * tmin * (xg + 1.0)
    a, b = t1 - s, t2 - s
    tau = s + a * b / (a + b)
    m = (np.outer(b, x1) + np.outer(a, x2)) / (a + b)[:, None]
    d = x1.size
    log_f = (log_heat_density(a + b, (x1 - x2) @ (x1 - x2), d)
             + log_heat_density(tau, np.sum(m * m, axis=1), d)
             - log_heat_density(t1, x1 @ x1, d) - log_heat_density(t2, x2 @ x2, d))
    return float(np.sum(0.5 * tmin * wg * np.exp(log_f)))


@pytest.mark.parametrize("region, pitch", [
    (TimeSliceBall(1.0, (0.0, 0.0), 0.7), 0.1),
    (SpaceTimeBox(0.5, 1.5, (-1.0,), (1.0,)), 0.1),
], ids=["slice", "box"])
def test_certificate_integral_matches_direct_gl96(region, pitch):
    # uniform weights on 40 sampled cells: 1600 ordered pairs, diagonal
    # included, span two blocks of the certificate's all-pairs quadrature
    cloud = discretize(region, pitch)
    idx = np.random.default_rng(5).choice(cloud.n, size=40, replace=False)
    w = np.zeros(cloud.n)
    w[idx] = 1.0 / idx.size
    km = assemble_kernel_matrix(cloud, PARABOLIC, diag_samples=16, seed=5)
    res = CapacityResult(2.0, 0.5, DiscreteMeasure(cloud.times, cloud.coords, w),
                         0.0, 0, True, 1e-6, km.provenance)
    rep = verify_duality(res, cloud, matrix=km)
    norm_sq = sum(w[i] * w[j] * _direct_gl96_pair_integral(
        cloud.times[i], cloud.coords[i], cloud.times[j], cloud.coords[j])
        for i in idx for j in idx)
    assert rep.norm_sq_ratio == pytest.approx(res.capacity * norm_sq, rel=1e-12)


def test_certificate_sums_the_triangle_twice_plus_the_diagonal():
    # every one of the 429 cells on the support: 91,806 pairs in the strict
    # upper triangle, so it spans two chunks
    cloud = discretize(TimeSliceBall(1.0, (0.0, 0.0), 0.7), 0.06)
    n = cloud.n
    assert len(list(_level_pair_chunks([np.arange(n)]))) >= 2
    w = np.random.default_rng(8).uniform(0.5, 1.0, n)
    w /= w.sum()
    res = CapacityResult(2.0, 0.5, DiscreteMeasure(cloud.times, cloud.coords, w),
                         0.0, 0, True, 1e-6, {"kernel": "parabolic"})
    rep = verify_duality(res, cloud, matrix=KernelMatrix(np.eye(n), {}))
    ii, jj = (g.ravel() for g in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
    xg, wg = gauss_legendre(96)
    vals = reduced_pair_sum(cloud.times[ii], cloud.coords[ii], cloud.times[jj],
                            cloud.coords[jj], 0.5 * (1.0 - xg), 0.5 * wg)
    square = float(np.sum(w[ii] * w[jj] * vals))
    assert rep.norm_sq_ratio == pytest.approx(res.capacity * square, rel=1e-12)


B090 = TimeSliceBall(1.0, (0.0, 0.0), 0.9)


@pytest.mark.parametrize("kind, batch", [(PARABOLIC, parabolic_kernel_batch),
                                         (CAP_PRIME, cap_prime_kernel_batch)],
                         ids=["parabolic", "cap_prime"])
def test_pair_values_in_chunks_equal_one_call(kind, batch):
    # a time pair per pair (the in-place route) and a ragged last chunk
    rng = np.random.default_rng(9)
    m = PAIR_CHUNK + 5
    t1, t2 = rng.uniform(0.5, 1.5, (2, m))
    x1, x2 = rng.uniform(-1.0, 1.0, (2, m, 1))
    assert np.array_equal(_pair_values(kind, t1, x1, t2, x2), batch(t1, x1, t2, x2))


def test_b090_assembly_and_certificate_peaks_stay_a_fixed_chunk():
    # the matrix is 716 * 716 * 8 B = 4.1 MB; the whole-triangle fill and the
    # certificate's square of the 606 support cells peaked at 36 and 46 MB
    cloud = discretize(B090, 0.06)
    _, assemble_peak = traced_peak(lambda: assemble_kernel_matrix(cloud, PARABOLIC, seed=1))
    res = capacity_on_cloud(cloud, PARABOLIC, seed=1)
    assert res.support_size == 606
    _, verify_peak = traced_peak(lambda: verify_duality(res, cloud))
    assert assemble_peak < 20 * 2 ** 20
    assert verify_peak < 12 * 2 ** 20


@pytest.mark.parametrize("region, pitch", [
    (TimeSliceBall(1.0, (0.0, 0.0), 0.45), 0.1),
    (SpaceTimeBox(0.5, 1.5, (-1.0,), (1.0,)), 0.2),
], ids=["slice", "box_d1"])
def test_duality_reuses_the_solve_potentials_on_its_own_cloud(region, pitch, monkeypatch):
    res = capacity(region, PARABOLIC, pitch, tol=1e-6, seed=6, diag_samples=16)
    cloud = discretize(region, pitch)  # a fresh cloud equal to the solve's
    km = assemble_kernel_matrix(cloud, PARABOLIC, diag_samples=16, seed=6)
    given = verify_duality(res, cloud, matrix=km)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return assemble_kernel_matrix(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("the solve's own cloud was assembled again")

    monkeypatch.setattr(capacity_solver, "assemble_kernel_matrix", refused)
    assert verify_duality(res, cloud) == given  # every field, exactly
    monkeypatch.setattr(capacity_solver, "assemble_kernel_matrix", counted)
    moved = cloud.translated(0.05, [0.02] * cloud.d)
    repitched = dataclasses.replace(cloud, resolution=1.01 * pitch)
    for other in (moved, repitched):
        verify_duality(res, other)
        assert calls[-1] is other
    assert len(calls) == 2


def test_duality_rejects_a_cloud_of_another_size():
    region = TimeSliceBall(1.0, (0.0, 0.0), 0.45)
    res = capacity(region, PARABOLIC, 0.1, tol=1e-6, seed=6, diag_samples=16)
    with pytest.raises(ValueError, match="cells but the result has"):
        verify_duality(res, discretize(region, 0.05))


def test_result_json_leaves_out_the_potentials():
    res = capacity(TimeSliceBall(1.0, (0.0, 0.0), 0.45), PARABOLIC, 0.1, tol=1e-6,
                   seed=6, diag_samples=16)
    assert res.potentials is not None
    payload = res.to_json_dict()
    assert set(payload) == {"capacity", "energy_min", "gap", "iterations", "converged",
                            "tol", "provenance", "equilibrium"}
    assert set(payload["equilibrium"]) == {"times", "coords", "weights"}


def _offdiag(a):
    return a[~np.eye(a.shape[0], dtype=bool)]


@pytest.mark.parametrize("cloud, kind", [
    (discretize(SpatialBall((0.0, 0.0), 0.5), 0.05), newtonian(2)),
    (discretize(SpatialBall((0.0, 0.0, 0.0), 0.5), 0.1), newtonian(3)),
    (discretize(SpaceTimeBox(0.5, 1.5, (-1.0,), (1.0,)), 0.1), CAP_PRIME),
    (discretize(TimeSliceBall(1.0, (0.0, 0.0), 0.4), 0.1), CAP_PRIME),
    (discretize(SpatialBall((0.0, 0.0), 0.5), 0.05).translated(0.0, [3.1, -0.7]),
     newtonian(2)),
    (discretize(SpaceTimeBox(0.5, 1.5, (-1.0,), (1.0,)), 0.1).translated(0.37, [1.3]),
     CAP_PRIME),
], ids=["newtonian_d2", "newtonian_d3", "cap_prime_box", "cap_prime_slice",
        "translated_newtonian", "translated_cap_prime"])
def test_stencil_matches_pairwise(cloud, kind, monkeypatch):
    k = _lattice_index(cloud)
    assert k is not None
    assert _stencil_table(kind, k, cloud.resolution) is not None
    stencil = assemble_kernel_matrix(cloud, kind, diag_samples=16, seed=4).entries
    assert np.array_equal(stencil, stencil.T)
    monkeypatch.setattr(capacity_solver, "_lattice_index", lambda cloud: None)
    pairwise = assemble_kernel_matrix(cloud, kind, diag_samples=16, seed=4).entries
    assert np.array_equal(np.diag(stencil), np.diag(pairwise))
    ref = _offdiag(pairwise)
    assert np.all(np.abs(_offdiag(stencil) - ref) <= 1e-13 * ref)


LATTICE_CASES = [
    (discretize(SpatialBall((0.0, 0.0), 0.5), 0.05), newtonian(2)),
    (discretize(SpatialBall((0.0, 0.0, 0.0), 0.5), 0.1), newtonian(3)),
    (discretize(SpaceTimeBox(0.5, 1.5, (-1.0,), (1.0,)), 0.1), CAP_PRIME),
    (discretize(TimeSliceBall(1.0, (0.0, 0.0), 0.4), 0.1), CAP_PRIME),
]
LATTICE_IDS = ["newtonian_d2", "newtonian_d3", "cap_prime_box", "cap_prime_slice"]


@pytest.mark.parametrize("cloud, kind", LATTICE_CASES, ids=LATTICE_IDS)
def test_lattice_kernel_solves_like_its_dense_matrix(cloud, kind):
    km = assemble_kernel_matrix(cloud, kind, diag_samples=16, seed=4)
    assert isinstance(km, LatticeKernel)
    dense = KernelMatrix(km.entries, {})
    # before the first refresh every step reads gathered rows only
    assert np.array_equal(minimize_energy(km, max_iter=511)[1],
                          minimize_energy(dense, max_iter=511)[1])
    f, w, _, iters, converged = minimize_energy(km, tol=1e-8)
    f_ref, _, _, iters_ref, _ = minimize_energy(dense, tol=1e-8)
    assert converged
    assert iters == iters_ref
    assert f == pytest.approx(f_ref, rel=1e-13)


@pytest.mark.parametrize("cloud, kind", LATTICE_CASES, ids=LATTICE_IDS)
def test_lattice_kernel_fft_product_matches_the_dense_product(cloud, kind):
    km = assemble_kernel_matrix(cloud, kind, diag_samples=16, seed=4)
    a = km.entries
    rng = np.random.default_rng(8)
    for w in (rng.uniform(0.0, 1.0, cloud.n), np.eye(cloud.n)[cloud.n // 3]):
        ref = a @ w
        assert np.all(np.abs(km.matvec(w) - ref) <= 1e-13 * ref)
    assert np.array_equal(km.diagonal(), np.diag(a))


@pytest.mark.parametrize("cloud, kind", LATTICE_CASES + [
    (discretize(SpaceTimeBox(0.5, 1.5, (-1.0,), (1.0,)), 0.1).translated(0.37, [1.3]),
     CAP_PRIME),
], ids=LATTICE_IDS + ["translated_cap_prime_box"])
def test_lattice_rows_read_the_stencil_table_at_each_offset(cloud, kind):
    km = assemble_kernel_matrix(cloud, kind, diag_samples=16, seed=4)
    assert isinstance(km, LatticeKernel)
    k = _lattice_index(cloud)
    grid, centre = _stencil_table(kind, k, cloud.resolution), k.max(axis=0)
    grid[tuple(centre)] = km.diagonal()[0]  # offset 0 holds the self-energy
    out = np.empty(cloud.n)
    for i in range(cloud.n):  # |offset|: the non-negative quadrant, so mirroring is checked
        assert np.array_equal(km.row(i, out), grid[tuple((np.abs(k - k[i]) + centre).T)])


def test_lattice_kernel_check():
    cloud = discretize(SpatialBall((0.0, 0.0, 0.0), 0.5), 0.1)
    k = _lattice_index(cloud)
    grid = _stencil_table(newtonian(3), k, cloud.resolution)
    # offset 0, the centre, is the diagonal: the self-energy replaces it
    assert grid.flat[grid.size // 2] == np.inf
    LatticeKernel(k, grid, 30.0, {}).check()
    for value, self_energy, match in ((np.nan, 30.0, "non-finite"),
                                      (np.inf, 30.0, "non-finite"),
                                      (-0.5, 30.0, "negative"),
                                      (grid.flat[5], np.inf, "non-finite"),
                                      (grid.flat[5], np.nan, "non-finite"),
                                      (grid.flat[5], -1.0, "negative")):
        bad = grid.copy()
        bad.flat[5] = value
        with pytest.raises(ValueError, match=match):
            LatticeKernel(k, bad, self_energy, {}).check()
    with pytest.raises(ValueError, match="one lattice site"):
        LatticeKernel(np.vstack([k, k[:1]]), grid, 30.0, {}).check()


def test_lattice_kernel_needs_its_fft_grid_to_fit_in_the_pairs():
    # a 10-cell ball on a 3 x 3 x 3 lattice: its 27-entry table fits in its
    # 45 pairs, but its 5 x 5 x 5 FFT grid does not, so it stays dense
    cloud = discretize(SpatialBall((0.0, 0.0, 0.0), 0.2), 0.15)
    k = _lattice_index(cloud)
    assert cloud.n == 10
    assert np.array_equal(k.max(axis=0), [2, 2, 2])
    assert _stencil_table(newtonian(3), k, cloud.resolution) is None
    km = assemble_kernel_matrix(cloud, newtonian(3), diag_samples=16, seed=4)
    assert type(km) is KernelMatrix


def test_lattice_capacity_allocates_no_cells_by_cells_array():
    # the n = 4224 matrix alone would take 4224 * 4224 * 8 B = 136 MB
    res, peak = traced_peak(lambda: capacity(SpatialBall((0.0, 0.0, 0.0), 1.0),
                                             newtonian(3), 0.1))
    assert res.equilibrium.weights.size == 4224
    assert res.converged
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("region, kind, on_lattice", [
    (RegionUnion((TimeSliceBall(1.0, (0.0, 0.0), 0.3),
                  TimeSliceBall(1.37, (0.0, 0.0), 0.3))), CAP_PRIME, False),
    (RegionUnion((SpatialBall((-20.0, 0.0), 0.3), SpatialBall((20.0, 0.0), 0.3))),
     newtonian(2), True),
], ids=["slices_off_lattice", "far_apart_balls"])
def test_stencil_falls_back_to_pairwise(region, kind, on_lattice):
    cloud = discretize(region, 0.1)
    k = _lattice_index(cloud)
    assert (k is not None) == on_lattice
    if on_lattice:  # the offset table would outnumber the pairs
        assert _stencil_table(kind, k, cloud.resolution) is None
    a = assemble_kernel_matrix(cloud, kind, diag_samples=16, seed=4).entries
    ii, jj = np.triu_indices(cloud.n, k=1)
    times = cloud.times
    ref = _pair_values(kind, None if times is None else times[ii], cloud.coords[ii],
                       None if times is None else times[jj], cloud.coords[jj])
    if on_lattice:  # one level, filled as the row-major triangle
        assert np.array_equal(a[ii, jj], ref)
    else:  # one time pair per block: the one-key route, not the whole triangle's
        assert np.all(np.abs(a[ii, jj] - ref) <= 1e-13 * ref)
    assert np.array_equal(a[jj, ii], a[ii, jj])


def test_kernel_matrix_check():
    n = 300  # more than one 256-row block
    base = np.ones((n, n)) + np.eye(n)
    KernelMatrix(base, {}).check()
    for value, match in ((np.inf, "non-finite"), (np.nan, "non-finite"),
                         (-0.5, "negative")):
        a = base.copy()
        a[3, 5] = a[5, 3] = value
        with pytest.raises(ValueError, match=match):
            KernelMatrix(a, {}).check()
    # tolerance is 1e-12 * max(1, max|a|) = 2e-12; (0, n-1) sits across blocks
    a = base.copy()
    a[0, n - 1] += 1e-9
    with pytest.raises(ValueError, match="not symmetric"):
        KernelMatrix(a, {}).check()
    a = base.copy()
    a[0, n - 1] += 1e-13
    KernelMatrix(a, {}).check()


@pytest.mark.parametrize("samples", [0, -3])
def test_diag_samples_below_one_is_rejected(samples):
    region = TimeSliceBall(1.0, (0.0, 0.0), 0.45)
    cloud = discretize(region, 0.4)
    with pytest.raises(ValueError, match=f"diag_samples must be at least 1, got {samples}"):
        assemble_kernel_matrix(cloud, PARABOLIC, diag_samples=samples)
    with pytest.raises(ValueError, match=f"got {samples}"):
        capacity(region, CAP_PRIME, 0.4, diag_samples=samples)


@pytest.mark.parametrize("samples", [2.5, math.nan, "8"])
def test_diag_samples_that_is_not_whole_is_rejected(samples):
    cloud = discretize(TimeSliceBall(1.0, (0.0, 0.0), 0.45), 0.4)
    with pytest.raises(ValueError, match="diag_samples must be a whole number"):
        assemble_kernel_matrix(cloud, PARABOLIC, diag_samples=samples)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
def test_tol_that_is_not_finite_and_positive_is_rejected(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        minimize_energy(np.eye(3), tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        capacity(SpatialBall((0.0, 0.0, 0.0), 1.0), newtonian(3), 0.5, tol=tol)
    # a dense matrix solves at max(tol, FINISH_TOL) first, which hid 0 and -1e-6
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        capacity(TimeSliceBall(1.0, (0.0, 0.0), 0.45), PARABOLIC, 0.4, tol=tol)


def _replayed_offset_self_energy(cloud, kind, samples, seed):
    """Mean kernel over one draw of offset pairs, replayed from the seed:
    coordinates then (full space-time cells only) times, first point first."""
    rng = np.random.default_rng(seed)
    half = 0.5 * cloud.resolution

    def offsets():
        x = rng.uniform(-half, half, size=(samples, cloud.d))
        if cloud.times is None:
            return None, x
        return (np.zeros(samples) if cloud.is_slice
                else rng.uniform(-half, half, size=samples)), x

    vals = _pair_values(kind, *offsets(), *offsets())
    assert np.all(np.isfinite(vals))
    return vals.mean()


@pytest.mark.parametrize("cloud, kind, on_stencil", [
    (discretize(SpatialBall((0.0, 0.0, 0.0), 0.5), 0.1), newtonian(3), True),
    (discretize(SpaceTimeBox(0.5, 1.5, (-1.0,), (1.0,)), 0.1), CAP_PRIME, True),
    (discretize(RegionUnion((TimeSliceBall(1.0, (0.0, 0.0), 0.3),
                             TimeSliceBall(1.37, (0.0, 0.0), 0.3))), 0.1), CAP_PRIME, False),
], ids=["newtonian_d3_ball", "cap_prime_box", "cap_prime_slices_off_lattice"])
def test_translation_invariant_kernels_share_one_self_energy(cloud, kind, on_stencil):
    assert (_lattice_index(cloud) is not None) == on_stencil
    diag = np.diag(assemble_kernel_matrix(cloud, kind, diag_samples=32, seed=7).entries)
    assert np.all(diag == diag[0])
    assert diag[0] == _replayed_offset_self_energy(cloud, kind, 32, 7)
    moved = cloud.translated(0.0 if cloud.times is None else 0.3, [0.7] * cloud.d)
    moved_diag = np.diag(assemble_kernel_matrix(moved, kind, diag_samples=32, seed=7).entries)
    assert np.array_equal(moved_diag, diag)
    other = np.diag(assemble_kernel_matrix(cloud, kind, diag_samples=32, seed=8).entries)
    assert np.all(other == other[0])
    assert other[0] != diag[0]


def test_parabolic_diagonal_replays_per_cell_samples():
    # each cell draws its own pairs, in the order of the per-cell sampler:
    # cells in blocks of 200_000 // samples, coordinates then times, first
    # point then second, so the diagonal is the per-cell mean of the batch
    cloud = discretize(SpaceTimeBox(0.5, 1.5, (-1.0,), (1.0,)), 0.1)
    samples, seed = 1024, 5
    km = assemble_kernel_matrix(cloud, PARABOLIC, diag_samples=samples, seed=seed)
    rng = np.random.default_rng(seed)
    half = 0.5 * cloud.resolution
    block = 200_000 // samples
    assert cloud.n > block  # more than one block of cells

    def draw(idx):
        x = cloud.coords[idx][:, None, :] + rng.uniform(-half, half, (idx.size, samples, 1))
        t = cloud.times[idx][:, None] + rng.uniform(-half, half, (idx.size, samples))
        return t.reshape(-1), x.reshape(-1, 1)

    ref = []
    for lo in range(0, cloud.n, block):
        idx = np.arange(lo, min(lo + block, cloud.n))
        vals = parabolic_kernel_batch(*draw(idx), *draw(idx))
        ref.append(vals.reshape(idx.size, samples).mean(axis=1))
    assert np.array_equal(np.diag(km.entries), np.concatenate(ref))
    assert km.provenance["diag_strategy"] == "within-cell pair sampling per cell"


def _kkt_oracle(K):
    """Support of min w^T K w on the simplex for a PD K, by an active-set
    (Lawson-Hanson) solve of min v^T K v / 2 - sum(v) over v >= 0, whose
    minimizer is the equilibrium scaled by 1/E."""
    n = K.shape[0]
    v = np.zeros(n)
    support = np.zeros(n, dtype=bool)
    while True:
        r = 1.0 - K @ v
        r[support] = -np.inf
        j = int(np.argmax(r))
        if r[j] <= 1e-12:
            return np.flatnonzero(support)
        support[j] = True
        while True:
            idx = np.flatnonzero(support)
            z = np.zeros(n)
            z[idx] = np.linalg.solve(K[np.ix_(idx, idx)], np.ones(idx.size))
            if np.all(z[idx] > 0):
                v = z
                break
            neg = idx[z[idx] <= 0]
            v = v + np.min(v[neg] / (v[neg] - z[neg])) * (z - v)
            support &= v > 1e-15


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [5, 40, 200])
def test_minimize_matches_exact_kkt_oracle(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.0, 1.0, (n, n))
    K = m @ m.T + np.eye(n)
    f, w, _, _, converged = minimize_energy(K, tol=1e-10)
    assert converged
    support = _kkt_oracle(K)
    assert np.array_equal(np.flatnonzero(w > 0), support)
    v = np.linalg.solve(K[np.ix_(support, support)], np.ones(support.size))
    assert f == pytest.approx(1.0 / v.sum(), rel=1e-8)
    off = np.setdiff1d(np.arange(n), support)
    assert np.all((K @ w)[off] >= f * (1.0 - 1e-9))


def test_minimize_empties_the_start_vertex_exactly():
    # the start vertex 0 (smallest diagonal) is off the optimum's support:
    # its potential 0.8 exceeds E = 0.7 at w = (0, 1/2, 1/2)
    K = np.array([[1.0, 0.8, 0.8], [0.8, 1.2, 0.2], [0.8, 0.2, 1.2]])
    f, w, _, _, converged = minimize_energy(K, tol=1e-12)
    assert converged
    assert w[0] == 0.0
    assert f == pytest.approx(0.7, rel=1e-12)


def test_minimize_support_grows_then_shrinks():
    # a PD hub: FW starts at the hub 0, brings in every other cell, then
    # drains the hub, whose potential 0.6 exceeds E = 0.54 at the optimum
    n = 6
    K = np.full((n, n), 0.3)
    K[0, :] = K[:, 0] = 0.6
    np.fill_diagonal(K, 1.5)
    K[0, 0] = 1.0
    iters = minimize_energy(K, tol=1e-12)[3]
    sizes = []
    for k in range(1, iters + 1):
        w = minimize_energy(K, tol=1e-12, max_iter=k)[1]
        assert np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        sizes.append(int(np.count_nonzero(w)))
    assert max(sizes) == n
    assert sizes[-1] == n - 1
    assert w[0] == 0.0


def test_minimize_allocates_no_support_by_cells_block():
    # every cell is on the support; a refresh that gathered the support's
    # rows (wa @ A[act]) would allocate 1500 * 1500 * 8 B = 18 MB
    n = 1500
    b = np.random.default_rng(3).uniform(0.0, 1.0, (n, n))
    K = np.eye(n) + 0.005 * (b + b.T)
    (_, w, _, iters, converged), peak = traced_peak(lambda: minimize_energy(K))
    assert converged
    assert iters > 512  # at least one refresh ran
    assert np.count_nonzero(w) == n
    assert peak < 2 ** 20


def test_result_reports_support_size_and_kkt_residual():
    region = TimeSliceBall(1.0, (0.0, 0.0), 0.45)
    res = capacity(region, PARABOLIC, 0.1, tol=1e-6, seed=6, diag_samples=16)
    w, e = res.equilibrium.weights, res.energy_min
    km = assemble_kernel_matrix(discretize(region, 0.1), PARABOLIC, diag_samples=16, seed=6)
    kw = km.entries @ w
    ref = max(np.max(np.abs(kw[w > 0] - e)), max(0.0, e - kw.min())) / e
    assert res.kkt_residual == pytest.approx(ref, rel=1e-12)
    assert res.kkt_residual >= res.gap / (2.0 * e) * (1.0 - 1e-9)
    assert res.support_size == np.count_nonzero(w > 0)
    bare = dataclasses.replace(res, potentials=None)
    assert bare.support_size is None
    assert bare.kkt_residual is None


FINISH_SLICES = [TimeSliceBall(1.0, (0.0, 0.0), r) for r in (0.2, 0.35, 0.5, 0.7)] + [
    TimeSliceBall(1.0, (0.5, 0.0), 0.3),
    SliceOf(1.0, SpatialAnnulus((0.0, 0.0), 0.4, 0.7)),
    SliceOf(1.0, RegionUnion((SpatialBall((-0.5, 0.0), 0.25), SpatialBall((0.55, 0.0), 0.25)))),
    B090,
]
FINISH_PITCHES = [0.05, 0.0875, 0.125, 0.175, 0.075, 0.12, 0.12, 0.15]


@pytest.mark.parametrize("region, pitch", list(zip(FINISH_SLICES, FINISH_PITCHES)),
                         ids=["b020", "b035", "b050", "b070", "off030", "annulus", "union",
                              "b090"])
def test_slice_capacity_closes_the_kkt_conditions_on_the_oracle_support(region, pitch):
    res = capacity(region, PARABOLIC, pitch, tol=1e-6, seed=2, diag_samples=16)
    assert res.provenance["solver"] == "kkt finish"
    assert res.converged
    assert res.kkt_residual <= 1e-9
    assert res.gap == 2.0 * (res.energy_min - res.potentials.min())
    km = assemble_kernel_matrix(discretize(region, pitch), PARABOLIC, diag_samples=16, seed=2)
    assert np.array_equal(np.flatnonzero(res.equilibrium.weights > 0), _kkt_oracle(km.entries))


def _dense_cloud(monkeypatch, K):
    """A three-cell cloud whose assembly returns the dense matrix K."""
    monkeypatch.setattr(capacity_solver, "assemble_kernel_matrix",
                        lambda cloud, kind, diag_samples, seed: KernelMatrix(K, {}))
    return dataclasses.make_dataclass("Cloud", ["times", "coords"])(None, np.zeros((3, 1)))


def test_finish_gives_way_to_frank_wolfe_at_tol_on_negative_curvature(monkeypatch):
    # FW at FINISH_TOL stops at e_0, whose gap 2e-4 is within it; cells 1 and
    # 2 have potential a < 1, so S is every cell, and K is indefinite on it
    a = 0.9999
    K = np.array([[1.0, a, a], [a, 1.0, 0.0], [a, 0.0, 1.0]])
    assert np.linalg.eigvalsh(K)[0] < 0
    assert minimize_energy(K, tol=capacity_solver.FINISH_TOL)[3] == 1
    real, seen = capacity_solver._cg_on_support, []

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(capacity_solver, "_cg_on_support", spy)
    res = capacity_on_cloud(_dense_cloud(monkeypatch, K), PARABOLIC, tol=1e-6)
    assert seen == [None]
    f, w, gap, iters, converged = minimize_energy(K, tol=1e-6)
    assert res.provenance["solver"] == "frank-wolfe"
    assert np.array_equal(res.equilibrium.weights, w)
    assert (res.energy_min, res.gap, res.iterations, res.converged) == (f, gap, iters, converged)
    assert res.energy_min == pytest.approx(0.5, rel=1e-12)


def test_finish_gives_way_to_frank_wolfe_at_tol_after_its_passes(monkeypatch):
    region, pitch = TimeSliceBall(1.0, (0.0, 0.0), 0.35), 0.05
    monkeypatch.setattr(capacity_solver, "FINISH_PASSES", 0)
    res = capacity(region, PARABOLIC, pitch, tol=1e-6, seed=1)
    km = assemble_kernel_matrix(discretize(region, pitch), PARABOLIC, seed=1)
    assert isinstance(km, KernelMatrix)
    f, w, gap, iters, converged = minimize_energy(km, tol=1e-6)
    assert res.provenance["solver"] == "frank-wolfe"
    assert converged and res.converged
    assert np.array_equal(res.equilibrium.weights, w)
    assert (res.energy_min, res.gap, res.iterations) == (f, gap, iters)


def test_lattice_kernel_result_is_frank_wolfe_at_tol():
    region, kind = SpatialBall((0.0, 0.0, 0.0), 0.5), newtonian(3)
    res = capacity(region, kind, 0.1, tol=1e-5, seed=3)
    km = assemble_kernel_matrix(discretize(region, 0.1), kind, seed=3)
    assert isinstance(km, LatticeKernel)
    f, w, gap, iters, _ = minimize_energy(km, tol=1e-5)
    assert res.provenance["solver"] == "frank-wolfe"
    assert np.array_equal(res.equilibrium.weights, w)
    assert (res.energy_min, res.gap, res.iterations) == (f, gap, iters)


def test_finish_allocates_no_support_by_support_block():
    # every cell is on the support; a K_SS array would take 1500 * 1500 * 8 B = 18 MB
    n = 1500
    b = np.random.default_rng(3).uniform(0.0, 1.0, (n, n))
    km = KernelMatrix(np.eye(n) + 0.005 * (b + b.T), {})
    f, w, _, _, _ = minimize_energy(km, tol=capacity_solver.FINISH_TOL)
    v, peak = traced_peak(lambda: capacity_solver._kkt_finish(km, w, f))
    assert np.count_nonzero(v) == n
    assert np.max(np.abs(km.matvec(v) - 1.0)) <= 1e-12
    assert peak < 2 ** 20


def _no_discretize(region, resolution):
    raise AssertionError("the kernel/space check must run before discretizing")


@pytest.mark.parametrize("region,kind,match", [
    (SpatialBall((0.0, 0.0), 0.5), newtonian(3), "kernel/region dimension mismatch"),
    (SpatialBall((0.0, 0.0), 0.5), PARABOLIC, "needs a space-time region"),
    (SpatialBall((0.0, 0.0), 0.5), CAP_PRIME, "needs a space-time region"),
    (TimeSliceBall(1.0, (0.0, 0.0), 0.5), newtonian(2), "needs a spatial region"),
], ids=["newtonian_dim", "parabolic_spatial", "cap_prime_spatial", "newtonian_slice"])
def test_capacity_checks_kernel_against_region_first(region, kind, match, monkeypatch):
    monkeypatch.setattr(capacity_solver, "discretize", _no_discretize)
    with pytest.raises(ValueError, match=match):
        capacity(region, kind, 0.2)


@pytest.mark.parametrize("region,kind,match", [
    (SpatialBall((0.0, 0.0), 0.5), CAP_PRIME, "needs a space-time cloud"),
    (SpatialBall((0.0, 0.0), 0.5), newtonian(3), "kernel/cloud dimension mismatch"),
    (TimeSliceBall(1.0, (0.0, 0.0), 0.5), newtonian(2), "needs a spatial cloud"),
], ids=["cap_prime_spatial", "newtonian_dim", "newtonian_slice"])
def test_assemble_checks_kernel_against_cloud(region, kind, match):
    with pytest.raises(ValueError, match=match):
        assemble_kernel_matrix(discretize(region, 0.25), kind)


LEVEL_CLOUDS = {
    "box_d1": discretize(SpaceTimeBox(0.5, 1.5, (-1.0,), (1.0,)), 0.1),
    "thorn_d1": discretize(Thorn("constant", 1.0, 0.05, 0.5, d=1), 0.025),
    "cone_d2": discretize(Thorn("constant", 1.0, 0.1, 0.5, d=2), 0.1),
    "slices_1_and_1.37": discretize(RegionUnion((TimeSliceBall(1.0, (0.0, 0.0), 0.3),
                                                 TimeSliceBall(1.37, (0.0, 0.0), 0.3))), 0.1),
    "slices_1.37_and_1": discretize(RegionUnion((TimeSliceBall(1.37, (0.0, 0.0), 0.3),
                                                 TimeSliceBall(1.0, (0.0, 0.0), 0.3))), 0.1),
}


@pytest.mark.parametrize("target", [7, 1_500_000])
@pytest.mark.parametrize("name", list(LEVEL_CLOUDS))
def test_level_pair_chunks_cover_the_upper_triangle_once_one_time_pair_each(name, target):
    cloud = LEVEL_CLOUDS[name]
    levels = np.unique(cloud.times)
    assert levels.size > 1
    widest = max(np.count_nonzero(cloud.times == t) for t in levels)
    count = np.zeros((cloud.n, cloud.n), dtype=int)
    for ii, jj in _level_pair_chunks(_time_levels(cloud.times), target):
        assert ii.size == jj.size and 0 < ii.size <= max(target, widest)
        assert np.all(ii < jj)
        assert np.all(cloud.times[ii] == cloud.times[ii[0]])
        assert np.all(cloud.times[jj] == cloud.times[jj[0]])
        np.add.at(count, (ii, jj), 1)
    assert np.array_equal(count, np.triu(np.ones_like(count), k=1))


def _block_routes(monkeypatch):
    """Record the route of every block of _table_exp_sum."""
    routes = []
    real = energy_kernel._table_exp_sum

    def spy(key, feats, tables, rows, width, block):
        def counted_tables(keys):
            routes.append("one key" if keys.size == 1 else "gathered tables")
            return tables(keys)

        def counted_rows(lo, hi, out):
            routes.append("in place")
            rows(lo, hi, out)

        return real(key, feats, counted_tables, counted_rows, width, block)

    monkeypatch.setattr(energy_kernel, "_table_exp_sum", spy)
    return routes


THREE_SLICES_OFF_LATTICE = RegionUnion(tuple(SliceOf(t, SpatialBall((0.0,), 0.5))
                                              for t in (1.0, 1.37, 1.81)))


@pytest.mark.parametrize("region, pitch, kind, batch, route", [
    (SpaceTimeBox(0.5, 1.5, (-1.0,), (1.0,)), 0.05, PARABOLIC, parabolic_kernel_batch,
     "one key"),
    (Thorn("constant", 1.0, 0.05, 0.5, d=1), 0.025, PARABOLIC, parabolic_kernel_batch,
     "one key"),
    # about 7 cells per level, below LEVEL_MIN_CELLS: the row-major triangle
    (Thorn("constant", 0.1, 0.05, 1.0, d=1), 0.02, PARABOLIC, parabolic_kernel_batch,
     "in place"),
    # off the pitch lattice, so no stencil: 50 cells per level
    (THREE_SLICES_OFF_LATTICE, 0.02, CAP_PRIME, cap_prime_kernel_batch, "one key"),
    # one level of 716 cells: 255,970 pairs, more than three PAIR_CHUNKs
    (B090, 0.06, PARABOLIC, parabolic_kernel_batch, "one key"),
], ids=["box", "thorn_eps0.05", "thin_levels", "cap_prime_slices_off_lattice",
        "b090_in_chunks"])
def test_parabolic_offdiagonal_takes_one_key_blocks_and_matches_whole_triangle(
        region, pitch, kind, batch, route, monkeypatch):
    cloud = discretize(region, pitch)
    ii, jj = np.triu_indices(cloud.n, k=1)
    ref = batch(cloud.times[ii], cloud.coords[ii], cloud.times[jj], cloud.coords[jj])
    routes = _block_routes(monkeypatch)
    a = np.zeros((cloud.n, cloud.n))
    _fill_pairwise(a, cloud, kind)
    assert set(routes) == {route}
    assert a[ii, jj] == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert np.array_equal(a[ii, jj], a[jj, ii])
    assert np.all(np.diag(a) == 0.0)


@pytest.mark.parametrize("region, pitch, n, digest", [
    (TimeSliceBall(1.0, (0.0, 0.0), 0.3), 0.05, 112,
     "31a1e7b5b656ff808e5619d2d17b1e565b17eac7026eac7ea6160ba896d6c93c"),
    (RegionUnion((SliceOf(1.0, SpatialBall((-0.5, 0.0), 0.25)),
                  SliceOf(1.0, SpatialAnnulus((0.3, 0.0), 0.1, 0.3)))), 0.08, 70,
     "46a5de246a3e46c358b16ad49c8db4288fe9f9b080d61f1b7d76ea76dc8ea626"),
], ids=["slice_ball", "slice_union"])
def test_single_level_slice_matrix_is_pinned(region, pitch, n, digest):
    # one time level: the row-major triangle in one kernel call, bit for bit
    cloud = discretize(region, pitch)
    assert cloud.n == n
    a = assemble_kernel_matrix(cloud, PARABOLIC, diag_samples=32, seed=3).entries
    ii, jj = np.triu_indices(cloud.n, k=1)
    assert np.array_equal(a[ii, jj], parabolic_kernel_batch(
        cloud.times[ii], cloud.coords[ii], cloud.times[jj], cloud.coords[jj]))
    assert hashlib.sha256(a.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("region", [SpaceTimeBox(0.5, 1.5, (-1.0,), (1.0,)),
                                    TimeSliceBall(1.0, (0.0, 0.0), 0.4)],
                         ids=["box", "slice_ball"])
def test_growth_profile_refuses_a_region_that_is_not_a_thorn(region):
    with pytest.raises(ValueError, match="growth profile expects a thorn region"):
        capacity_growth_profile(region, [0.1])


@pytest.mark.parametrize("center, radius, h", [
    ((0.0,), 0.5, 0.07), ((0.0, 0.0), 0.5, 0.07), ((0.3, 0.0), 0.3, 0.05),
    ((0.0, 0.0, 0.0), 0.5, 0.12),
], ids=["d1", "d2", "d2_off", "d3"])
@pytest.mark.parametrize("lam", [1.0 / math.sqrt(2.0), 0.5])
def test_slice_capacity_is_covariant_under_parabolic_scaling(center, radius, h, lam):
    # S(t, x) = (lam^2 t, lam x) maps the slice, its lattice at pitch lam h,
    # the diagonal draws and the kernel nodes onto the image's, and the
    # parabolic kernel scales by lam^-2: lam^2 cap(S A) = cap(A)
    base = capacity(SliceOf(1.0, SpatialBall(center, radius)), PARABOLIC, h, seed=1)
    image = capacity(SliceOf(lam ** 2, SpatialBall([lam * c for c in center], lam * radius)),
                     PARABOLIC, lam * h, seed=1)
    assert lam ** 2 * image.capacity == pytest.approx(base.capacity, rel=1e-12, abs=0.0)
