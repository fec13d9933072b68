import math

import numpy as np
import pytest

from parcap import capacity_solver
from parcap.capacity_solver import (
    CapacityResult,
    KernelMatrix,
    _lattice_index,
    _pair_values,
    _stencil_table,
    _triangle_chunks,
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
    mutual_kernel,
    newtonian,
    newtonian_kernel,
)
from parcap.heat_kernel import log_heat_density
from parcap.quadrature import gauss_legendre
from parcap.region import (
    RegionUnion,
    SpaceTimeBox,
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


def test_assemble_threaded_matches_serial():
    from parcap import runtime
    cloud = discretize(SpatialBall((0.0, 0.0, 0.0), 0.9), 0.12)
    serial = assemble_kernel_matrix(cloud, newtonian(3), diag_samples=32, seed=3)
    runtime.set_threads(4)
    try:
        threaded = assemble_kernel_matrix(cloud, newtonian(3), diag_samples=32,
                                          seed=3)
    finally:
        runtime.set_threads(1)
    assert np.array_equal(serial.entries, threaded.entries)
    assert np.all(serial.entries >= 0.0)


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
    # same pairs, order and chunk boundaries as a per-row loop over whole rows
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
                   for ii, jj in _triangle_chunks(n, target)]
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


def test_assemble_threaded_matches_serial_parabolic():
    # the parabolic kernel is always assembled pair by pair, through the pool
    from parcap import runtime
    cloud = discretize(TimeSliceBall(1.0, (0.0, 0.0), 0.4), 0.1)
    serial = assemble_kernel_matrix(cloud, PARABOLIC, diag_samples=16, seed=3)
    runtime.set_threads(4)
    try:
        threaded = assemble_kernel_matrix(cloud, PARABOLIC, diag_samples=16, seed=3)
    finally:
        runtime.set_threads(1)
    assert np.array_equal(serial.entries, threaded.entries)


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
    assert np.array_equal(a[ii, jj], ref)
    assert np.array_equal(a[jj, ii], ref)


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
