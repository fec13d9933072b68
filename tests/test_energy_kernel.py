import math
from fractions import Fraction

import numpy as np
import pytest

from parcap import energy_kernel
from parcap.energy_kernel import (
    CAP_PRIME,
    PARABOLIC,
    DiscreteMeasure,
    KernelKind,
    cap_prime_bruteforce,
    cap_prime_kernel,
    cap_prime_kernel_batch,
    energy,
    energy_mc_paths,
    mutual_kernel,
    mutual_kernel_bruteforce,
    newtonian,
    newtonian_kernel,
    newtonian_kernel_batch,
    parabolic_kernel_batch,
    reduced_log_coefs,
)
from parcap.heat_kernel import LOG_FLOOR, SpaceTimePoint, heat_density


def random_pair(rng, d, min_gap=0.15):
    t1 = rng.uniform(0.3, 2.0)
    t2 = t1 + rng.uniform(min_gap, 1.5)
    x1 = rng.uniform(-1.5, 1.5, d)
    x2 = rng.uniform(-1.5, 1.5, d)
    return SpaceTimePoint(t1, x1), SpaceTimePoint(t2, x2)


def test_diagonal_sentinel_d_ge_2():
    z = SpaceTimePoint(1.0, [0.0, 0.0])
    assert mutual_kernel(z, z) == math.inf
    z3 = SpaceTimePoint(0.5, [1.0, 0.0, 0.0])
    assert mutual_kernel(z3, z3) == math.inf


def test_diagonal_closed_form_d1():
    # K((t,0),(t,0)) = pi t / 2: the reduced integrand is t / sqrt(t^2 - s^2)
    for t in (0.5, 1.0, 2.0):
        z = SpaceTimePoint(t, [0.0])
        assert mutual_kernel(z, z) == pytest.approx(math.pi * t / 2, rel=1e-8)


def test_kernel_symmetry_exact():
    rng = np.random.default_rng(4)
    for d in (1, 2):
        for _ in range(10):
            z1, z2 = random_pair(rng, d)
            assert mutual_kernel(z1, z2) == mutual_kernel(z2, z1)


def test_bruteforce_oracle_agreement_d1():
    rng = np.random.default_rng(11)
    for _ in range(50):
        z1, z2 = random_pair(rng, 1)
        a = mutual_kernel(z1, z2)
        b = mutual_kernel_bruteforce(z1, z2)
        assert abs(a - b) / abs(b) < 1e-4


def test_bruteforce_convergence_on_fixed_pair():
    z1 = SpaceTimePoint(0.8, [0.3])
    z2 = SpaceTimePoint(1.4, [-0.5])
    coarse = mutual_kernel_bruteforce(z1, z2, n_s=160, n_y=64)
    fine = mutual_kernel_bruteforce(z1, z2, n_s=320, n_y=128)
    assert abs(coarse - fine) / abs(fine) < 1e-5


def test_defining_integrand_vanishes_past_min_time():
    # p factors kill the defining double integrand for s >= t ^ t'
    t1, x1, t2, x2 = 0.8, np.array([0.1]), 1.2, np.array([0.4])
    for s in (0.8, 0.9, 1.2, 5.0):
        y = np.array([0.2])
        val = (heat_density(s, y) * heat_density(t1 - s, x1 - y)
               * heat_density(t2 - s, x2 - y))
        assert val == 0.0


def test_batch_matches_scalar():
    rng = np.random.default_rng(8)
    n = 60
    t1 = rng.uniform(0.3, 2.0, n)
    t2 = rng.uniform(0.3, 2.0, n)
    x1 = rng.uniform(-1.0, 1.0, (n, 2))
    x2 = x1 + rng.uniform(0.01, 0.8, (n, 2)) * rng.choice([-1, 1], (n, 2))
    vals = parabolic_kernel_batch(t1, x1, t2, x2)
    for i in range(n):
        ref = mutual_kernel((t1[i], x1[i]), (t2[i], x2[i]))
        assert vals[i] == pytest.approx(ref, rel=1e-7)
    vals = cap_prime_kernel_batch(t1, x1, t2, x2)
    for i in range(0, n, 5):
        ref = cap_prime_kernel((t1[i], x1[i]), (t2[i], x2[i]))
        assert vals[i] == pytest.approx(ref, rel=1e-7)


def test_cap_prime_diagonal_half():
    for t in (0.4, 1.0, 3.0):
        z = SpaceTimePoint(t, [0.7])
        assert cap_prime_kernel(z, z) == pytest.approx(0.5, abs=1e-6)
    z2 = SpaceTimePoint(1.0, [0.0, 0.0])
    assert cap_prime_kernel(z2, z2) == math.inf


def test_cap_prime_monotone_decay():
    x = [0.0]
    vals = [cap_prime_kernel((1.0, x), (1.0 + gap, x)) for gap in
            np.linspace(0.0, 20.0, 15)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-4
    vals = [cap_prime_kernel((1.0, [0.0]), (1.0, [r])) for r in
            np.linspace(0.1, 6.0, 12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cap_prime_bruteforce_agreement():
    rng = np.random.default_rng(21)
    for _ in range(20):
        z1, z2 = random_pair(rng, 1, min_gap=0.05)
        a = cap_prime_kernel(z1, z2)
        b = cap_prime_bruteforce(z1, z2)
        assert abs(a - b) / abs(b) < 1e-4


def test_newtonian_values():
    assert newtonian_kernel([0.0, 0.0, 0.0], [0.5, 0.0, 0.0], 3) == pytest.approx(2.0)
    assert newtonian_kernel([0.0, 0.0], [1.0, 0.0], 2) == 0.0
    assert newtonian_kernel([0.0, 0.0], [math.exp(-1.0), 0.0], 2) == pytest.approx(1.0)
    assert newtonian_kernel([0.3, 0.3], [0.3, 0.3], 2) == math.inf


def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure.spatial([[0.0], [1.0]], [0.6, 0.6])
    with pytest.raises(ValueError):
        DiscreteMeasure.spatial([[0.0], [1.0]], [1.2, -0.2])
    with pytest.raises(ValueError):
        DiscreteMeasure.spacetime([(0.0, [0.0])], [1.0])


def test_energy_single_atom_infinite_d2():
    m = DiscreteMeasure.spacetime([(1.0, [0.0, 0.0])], [1.0])
    assert energy(m, PARABOLIC) == math.inf


def test_energy_zero_weight_atom_drops_out():
    # weights (1, 0): the zero-weight atom never contributes, even with an
    # infinite self-kernel in d >= 2
    m = DiscreteMeasure.spacetime([(1.0, [0.0]), (2.0, [1.0])], [1.0, 0.0])
    z = SpaceTimePoint(1.0, [0.0])
    assert energy(m, PARABOLIC) == pytest.approx(mutual_kernel(z, z), rel=1e-10)
    m2 = DiscreteMeasure.spacetime([(1.0, [0.0, 0.0]), (2.0, [1.0, 0.0])],
                                   [0.0, 1.0])
    assert energy(m2, PARABOLIC) == math.inf  # surviving atom self-kernel


def test_energy_gram_positive_semidefinite():
    rng = np.random.default_rng(33)
    pts = [SpaceTimePoint(rng.uniform(0.3, 2.0), rng.uniform(-1, 1, 1))
           for _ in range(6)]
    K = np.array([[mutual_kernel(a, b) for b in pts] for a in pts])
    for _ in range(100):
        w = rng.uniform(0.0, 1.0, 6)
        w /= w.sum()
        assert w @ K @ w >= -1e-12


def test_energy_mc_single_atom_consistency():
    z = SpaceTimePoint(1.0, [0.0])
    m = DiscreteMeasure.spacetime([z], [1.0])
    ref = mutual_kernel(z, z)
    for attempt in (0, 1):  # 3-SE gate, one retry
        est, se = energy_mc_paths(m, 3000, dt=1.0 / 512, seed=101 + attempt)
        if abs(est - ref) <= 3.0 * se:
            break
    else:
        pytest.fail(f"MC {est}+-{se} vs quadrature {ref}")


def test_energy_mc_two_atom_consistency():
    m = DiscreteMeasure.spacetime([(0.8, [-1.5]), (1.2, [1.5])], [0.5, 0.5])
    ref = energy(m, PARABOLIC)
    for attempt in (0, 1):
        est, se = energy_mc_paths(m, 3000, dt=1.0 / 512, seed=202 + attempt)
        if abs(est - ref) <= 3.0 * se:
            break
    else:
        pytest.fail(f"MC {est}+-{se} vs quadrature {ref}")


def test_energy_mc_error_scaling():
    m = DiscreteMeasure.spacetime([(1.0, [0.5])], [1.0])
    ratios = []
    for rep in range(10):
        _, se1 = energy_mc_paths(m, 200, dt=1.0 / 128, seed=500 + rep)
        _, se2 = energy_mc_paths(m, 400, dt=1.0 / 128, seed=900 + rep)
        ratios.append(se2 / se1)
    mean_ratio = float(np.mean(ratios))
    assert abs(mean_ratio - 1.0 / math.sqrt(2.0)) < 0.2 / math.sqrt(2.0)


def test_energy_mc_rejects_big_dt():
    m = DiscreteMeasure.spacetime([(0.5, [0.0])], [1.0])
    with pytest.raises(ValueError):
        energy_mc_paths(m, 10, dt=0.5, seed=0)


def test_same_time_pair_matches_bruteforce_d2():
    a = mutual_kernel((1.0, [0.0, 0.0]), (1.0, [0.5, 0.0]))
    b = mutual_kernel_bruteforce((1.0, [0.0, 0.0]), (1.0, [0.5, 0.0]),
                                 n_s=200, n_y=80)
    assert abs(a - b) / b < 1e-4


def test_kernel_positivity():
    rng = np.random.default_rng(55)
    n = 200
    t1 = rng.uniform(0.2, 2.5, n)
    t2 = rng.uniform(0.2, 2.5, n)
    x1 = rng.uniform(-2, 2, (n, 2))
    x2 = rng.uniform(-2, 2, (n, 2))
    assert np.all(parabolic_kernel_batch(t1, x1, t2, x2) >= 0.0)
    assert np.all(cap_prime_kernel_batch(t1, x1, t2, x2) >= 0.0)


def test_uniform_measure_energy_bracket():
    # off-diagonal pair energies of 100 uniform samples of the unit disc at
    # the unit-time slice, against the spatial log-kernel energy; the bracket
    # [2, 5] was fit once from this comparison and is frozen here
    from parcap.region import SpatialBall, sample_uniform
    pts = sample_uniform(SpatialBall((0.0, 0.0), 1.0), 100, seed=12345)
    iu, ju = np.triu_indices(100, k=1)
    ones = np.full(iu.size, 1.0)
    kp = parabolic_kernel_batch(ones, pts[iu], ones, pts[ju])
    kn = np.array([newtonian_kernel(pts[i], pts[j], 2)
                   for i, j in zip(iu, ju)])
    ratio = kp.sum() / kn.sum()
    assert 2.0 <= ratio <= 5.0


def test_batch_tables_match_pairwise_evaluation():
    # Time pairs repeat within and across blocks and interleave with unique
    # ones, so a table wired to the wrong group shows up against the
    # one-pair-at-a-time values. The far pairs put most nodes at the log floor.
    rng = np.random.default_rng(71)
    n = 400
    levels = np.array([0.4, 0.75, 1.0, 1.3])
    t1 = rng.choice(levels, n)
    t2 = rng.choice(levels, n)
    fresh = rng.random(n) < 0.3
    t1[fresh] = rng.uniform(0.3, 2.0, fresh.sum())
    x1 = rng.uniform(-1.0, 1.0, (n, 2))
    x2 = x1 + rng.uniform(0.05, 0.8, (n, 2)) * rng.choice([-1, 1], (n, 2))
    far = np.arange(n) % 7 == 0
    t2[far] = t1[far]
    for batch, far_gap in ((parabolic_kernel_batch, 3.0), (cap_prime_kernel_batch, 40.0)):
        x2f = x2.copy()
        x2f[far] = x1[far] + far_gap
        one = np.array([batch(t1[i:i + 1], x1[i:i + 1], t2[i:i + 1], x2f[i:i + 1])[0]
                        for i in range(n)])
        assert np.all(one > 0.0)
        for block in (64, 1024):
            vals = batch(t1, x1, t2, x2f, block=block)
            assert vals == pytest.approx(one, rel=1e-12, abs=0.0)


def test_one_time_pair_blocks_match_pairwise_evaluation():
    # 1100 pairs at one time pair: whole blocks and a short last block take
    # the one-key matrix product. Each pair is checked against itself alone
    # and against a call where a second time pair forces the in-place route.
    rng = np.random.default_rng(73)
    n = 1100
    t = np.full(n, 1.0)
    x1 = rng.uniform(-0.9, 0.9, (n, 2))
    x2 = rng.uniform(-0.9, 0.9, (n, 2))
    one = np.array([parabolic_kernel_batch(t[i:i + 1], x1[i:i + 1], t[i:i + 1],
                                           x2[i:i + 1])[0] for i in range(n)])
    decoy_t = np.array([1.0, 1.3])
    two_keys = np.array([parabolic_kernel_batch(decoy_t, np.stack([x1[i], x1[i]]),
                                                decoy_t, np.stack([x2[i], x2[i]]))[0]
                         for i in range(n)])
    assert two_keys == pytest.approx(one, rel=1e-12, abs=0.0)
    for block in (64, 1024):
        vals = parabolic_kernel_batch(t, x1, t, x2, block=block)
        assert vals == pytest.approx(one, rel=1e-12, abs=0.0)


def _in_cell_pairs(rng, n, d, pitch=0.1):
    """n point pairs, both points uniform in the same cell of a space-time
    lattice, so every time pair (and every time gap) is distinct."""
    tc = 0.6 + pitch * rng.integers(0, 10, n)
    xc = pitch * rng.integers(-8, 8, (n, d))
    half = 0.5 * pitch
    t1, t2 = (tc + rng.uniform(-half, half, n) for _ in range(2))
    x1, x2 = (xc + rng.uniform(-half, half, (n, d)) for _ in range(2))
    return t1, x1, t2, x2


def _route_spy(monkeypatch):
    """Record which route of _table_exp_sum each block takes."""
    routes = set()
    real = energy_kernel._table_exp_sum

    def spy(key, feats, tables, rows, width, block):
        def counted_tables(keys):
            routes.add("one key" if keys.size == 1 else "gathered tables")
            return tables(keys)

        def counted_rows(lo, hi, out):
            routes.add("in place")
            rows(lo, hi, out)

        return real(key, feats, counted_tables, counted_rows, width, block)

    monkeypatch.setattr(energy_kernel, "_table_exp_sum", spy)
    return routes


@pytest.mark.parametrize("batch, d", [(parabolic_kernel_batch, 1), (parabolic_kernel_batch, 2),
                                      (cap_prime_kernel_batch, 1)],
                         ids=["parabolic_d1", "parabolic_d2", "cap_prime_d1"])
def test_distinct_and_mixed_key_blocks_match_pairwise_evaluation(batch, d, monkeypatch):
    # i.i.d. in-cell pairs have distinct keys and take the in-place route.
    # The mixed set runs 300 pairs at one time pair, 300 cycling through
    # three lattice time pairs and 300 in-cell pairs, so blocks of 64 and
    # 256 pairs take both routes.
    rng = np.random.default_rng(79)
    n = 900
    t1, x1, t2, x2 = _in_cell_pairs(rng, n, d)
    one = np.array([batch(t1[i:i + 1], x1[i:i + 1], t2[i:i + 1], x2[i:i + 1])[0]
                    for i in range(n)])
    mt1, mt2 = t1.copy(), t2.copy()
    mt1[:300] = mt2[:300] = 1.0
    mt1[300:600] = np.tile([0.7, 1.0, 1.3], 100)
    mt2[300:600] = np.tile([1.0, 1.0, 0.8], 100)
    mixed_one = np.array([batch(mt1[i:i + 1], x1[i:i + 1], mt2[i:i + 1], x2[i:i + 1])[0]
                          for i in range(n)])
    assert np.all(one > 0.0) and np.all(mixed_one > 0.0)
    routes = _route_spy(monkeypatch)
    for block in (64, 256, 1024):
        routes.clear()
        vals = batch(t1, x1, t2, x2, block=block)
        assert routes == {"in place"}
        assert vals == pytest.approx(one, rel=1e-12, abs=0.0)
        routes.clear()
        vals = batch(mt1, x1, mt2, x2, block=block)
        assert vals == pytest.approx(mixed_one, rel=1e-12, abs=0.0)
        if block < 1024:
            assert routes == {"one key", "in place"}



@pytest.mark.parametrize("d", [1, 2, 3])
def test_regrouped_in_place_route_matches_one_key_pairs(d, monkeypatch):
    # four groups of pairs with distinct keys: t1 < t2, t1 > t2, t1 == t2,
    # and far-apart pairs at small gaps whose nodes near s = t1^t2 fall
    # below LOG_FLOOR while the rest do not
    rng = np.random.default_rng(113 + d)
    m = 60
    t1 = rng.uniform(0.4, 1.6, 4 * m)
    gap = np.concatenate([rng.uniform(0.01, 0.3, m), -rng.uniform(0.01, 0.3, m),
                          np.zeros(m), rng.uniform(-0.02, 0.02, m)])
    t2 = t1 + gap
    x1 = rng.uniform(-1.0, 1.0, (4 * m, d))
    x2 = x1 + rng.normal(0.0, 0.1, (4 * m, d))
    x1[3 * m:, 0] += 6.0
    x2[3 * m:, 0] = x1[3 * m:, 0] - 12.0
    one = np.array([parabolic_kernel_batch(t1[i:i + 1], x1[i:i + 1], t2[i:i + 1],
                                           x2[i:i + 1])[0] for i in range(4 * m)])
    assert np.all(one > 0.0)
    u0, w0 = energy_kernel._BATCH_UNIT_NODES, energy_kernel._BATCH_UNIT_WEIGHTS
    for i in range(3 * m, 4 * m):
        tmin = min(t1[i], t2[i])
        A, E, B, C = reduced_log_coefs(t1[i], t2[i], tmin - tmin * u0 * u0, d)
        dx = x1[i] - x2[i]
        log_f = (A + E * (dx @ dx) + B * (x1[i] @ x1[i]) + C * (x2[i] @ x2[i])
                 + np.log(2.0 * tmin * u0 * w0))
        assert log_f.min() < LOG_FLOOR < log_f.max()
    routes = _route_spy(monkeypatch)
    for block in (64, 1024):
        routes.clear()
        vals = parabolic_kernel_batch(t1, x1, t2, x2, block=block)
        assert routes == {"in place"}
        assert vals == pytest.approx(one, rel=1e-12, abs=0.0)


def _two_division_form_exact(t1, t2, s, d):
    """The (tot, tau) closed form of the coefficients, in exact rational
    arithmetic on the given floats (A through one rounded log)."""
    t1, t2, s = Fraction(t1), Fraction(t2), Fraction(s)
    a, b = t1 - s, t2 - s
    tot = a + b
    tau = s + a * b / tot
    h = 1 / (2 * tau * tot)
    return (0.5 * d * math.log(t1 * t2 / (tot * tau)), (a * b * h - Fraction(1, 2)) / tot,
            1 / (2 * t1) - b * h, 1 / (2 * t2) - a * h)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_reduced_log_coefs_match_the_two_division_form(d):
    # s near 0, in the middle and near t1^t2, for t1 < t2, t1 = t2 and t1 > t2.
    # The float (tot, tau) form itself loses digits near s = 0, where
    # a b h - 1/2 cancels, so it is evaluated exactly. A enters the integrand
    # as e^A; B and C are differences of terms of size 1/(2 t), which bounds
    # their rounding.
    for t1, t2 in ((0.5, 1.2), (1.0, 1.0), (1.7, 0.9)):
        tmin = min(t1, t2)
        for frac in (1e-9, 1e-4, 0.3, 0.5, 0.9, 1.0 - 1e-4, 1.0 - 1e-7):
            s = tmin * frac
            A, E, B, C = (float(c) for c in reduced_log_coefs(t1, t2, s, d))
            A0, E0, B0, C0 = _two_division_form_exact(t1, t2, s, d)
            assert math.exp(A) == pytest.approx(math.exp(A0), rel=1e-13, abs=0.0)
            assert E == pytest.approx(float(E0), rel=1e-13, abs=0.0)
            assert abs(B - B0) <= 1e-13 * 0.5 / t1
            assert abs(C - C0) <= 1e-13 * 0.5 / t2


@pytest.mark.parametrize("measure,kind,match", [
    (DiscreteMeasure.spacetime([(1.0, [0.0, 0.0])], [1.0]), newtonian(2),
     "needs a spatial measure"),
    (DiscreteMeasure.spatial([[0.0, 0.0]], [1.0]), newtonian(3),
     "kernel/measure dimension mismatch"),
    (DiscreteMeasure.spatial([[0.0]], [1.0]), PARABOLIC, "needs a space-time measure"),
    (DiscreteMeasure.spatial([[0.0]], [1.0]), CAP_PRIME, "needs a space-time measure"),
], ids=["newtonian_spacetime", "newtonian_dim", "parabolic_spatial", "cap_prime_spatial"])
def test_energy_checks_kernel_against_measure(measure, kind, match):
    with pytest.raises(ValueError, match=match):
        energy(measure, kind)


def test_kernel_kind_labels_and_invariance():
    # str() is the provenance label of capacity results
    kinds = [PARABOLIC, CAP_PRIME, newtonian(2), newtonian(3)]
    assert [str(k) for k in kinds] == ["parabolic", "cap_prime", "newtonian(d=2)",
                                       "newtonian(d=3)"]
    assert [k.invariant for k in kinds] == [False, True, True, True]
    # a space-time kernel drops the spatial dimension it is given
    assert KernelKind("parabolic", 2) == PARABOLIC
    assert KernelKind("cap_prime", 3) == CAP_PRIME
    assert KernelKind("newtonian", 3) == newtonian(3)
    for tag, d in [("laplace", 2), ("newtonian", 1), ("newtonian", None)]:
        with pytest.raises(ValueError):
            KernelKind(tag, d)


@pytest.mark.parametrize("kind, d", [(PARABOLIC, 1), (PARABOLIC, 2), (CAP_PRIME, 2),
                                     (newtonian(2), 2), (newtonian(3), 3)])
def test_kernel_kind_batch_is_its_module_function(kind, d):
    rng = np.random.default_rng(17)
    n = 3000
    t1, t2 = rng.uniform(0.3, 2.0, n), rng.uniform(0.3, 2.0, n)
    t2[:1000] = t1[:1000]  # some one-key blocks among mixed ones
    x1, x2 = rng.uniform(-1.0, 1.0, (n, d)), rng.uniform(-1.0, 1.0, (n, d))
    if kind == PARABOLIC:
        want = parabolic_kernel_batch(t1, x1, t2, x2)
    elif kind == CAP_PRIME:
        want = cap_prime_kernel_batch(t1, x1, t2, x2)
    else:
        want = newtonian_kernel_batch(x1, x2, d)
        t1 = t2 = None  # the newtonian kernel reads no times
    assert np.array_equal(kind.batch(t1, x1, t2, x2), want)
