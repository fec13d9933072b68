import math

import numpy as np
import pytest

from parcap.heat_kernel import (
    SpaceTimePoint,
    _sq_norms,
    bridge_weight,
    gaussian_product_reduce,
    heat_density,
    log_heat_density,
)
from parcap.quadrature import gauss_legendre


def test_density_value_d2():
    assert heat_density(1.0, [0.0, 0.0]) == pytest.approx(1.0 / (2 * math.pi),
                                                          rel=1e-12)


def test_density_zero_for_nonpositive_time():
    assert heat_density(-1.0, [0.0]) == 0.0
    assert heat_density(0.0, [1.0, 2.0, 3.0]) == 0.0


def test_density_normalizes_d1():
    # integral over [-40, 40] captures the t=2 Gaussian to ~1e-300
    x, w = gauss_legendre(400)
    y = 40.0 * x
    vals = np.array([heat_density(2.0, [v]) for v in y])
    assert abs(40.0 * float(w @ vals) - 1.0) < 1e-10


def test_density_rejects_non_finite():
    with pytest.raises(ValueError):
        heat_density(float("nan"), [0.0])
    with pytest.raises(ValueError):
        heat_density(1.0, [float("inf")])


def test_density_symmetry_and_decay():
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = rng.uniform(0.1, 3.0)
        x = rng.normal(size=3)
        assert heat_density(t, x) == heat_density(t, -x)
    radii = np.linspace(0.0, 5.0, 40)
    vals = [heat_density(0.7, [r, 0.0]) for r in radii]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_space_time_point_validation():
    p = SpaceTimePoint(1.0, [0.5, -0.5])
    assert p.d == 2
    with pytest.raises(ValueError):
        SpaceTimePoint(0.0, [0.0])
    with pytest.raises(ValueError):
        SpaceTimePoint(1.0, [float("nan")])


def test_bridge_weight_at_origin_is_one():
    assert bridge_weight(SpaceTimePoint(0.7, [0.3, -1.0]), 0.0, [0.0, 0.0]) == 1.0


def test_bridge_weight_midpoint_value():
    # p(0.5, 0) / p(1, 0) = sqrt(2) in d = 1
    got = bridge_weight(SpaceTimePoint(1.0, [0.0]), 0.5, [0.0])
    assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_bridge_weight_vanishes_beyond_target_time():
    assert bridge_weight(SpaceTimePoint(1.0, [0.2]), 1.5, [7.0]) == 0.0
    assert bridge_weight(SpaceTimePoint(1.0, [0.2]), 1.0, [0.2]) == 0.0


def test_bridge_weight_far_target_is_finite():
    # p(1, 37.5) underflows to 0, but the ratio is taken in log space
    got = bridge_weight(SpaceTimePoint(1.0, [37.5]), 0.5, [37.5])
    want = math.exp(float(log_heat_density(0.5, 0.0, 1)
                          - log_heat_density(1.0, 37.5 ** 2, 1)))
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-12)


def test_product_reduce_symmetric_case():
    var, mean, scale = gaussian_product_reduce(1.0, [0.0], 1.0, [0.0], 0.5)
    assert var == pytest.approx(0.25)
    assert mean == pytest.approx([0.0])
    assert scale == pytest.approx(heat_density(1.0, [0.0]))


def test_product_reduce_worked_example():
    # t=1, t2=2, x=0, x2=1, s=0.5 in d=1
    var, mean, scale = gaussian_product_reduce(1.0, [0.0], 2.0, [1.0], 0.5)
    assert var == pytest.approx(0.375)
    assert mean == pytest.approx([0.25])
    assert scale == pytest.approx(heat_density(2.0, [-1.0]))
    rng = np.random.default_rng(1)
    for y in rng.normal(0.0, 1.5, size=20):
        lhs = heat_density(0.5, [0.0 - y]) * heat_density(1.5, [1.0 - y])
        rhs = scale * heat_density(var, [y - 0.25])
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_product_reduce_identity_random_sweep():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        t1 = rng.uniform(0.1, 3.0)
        t2 = rng.uniform(0.1, 3.0)
        s = rng.uniform(0.0, min(t1, t2)) * 0.999 + 1e-6
        x1, x2, y = rng.normal(0.0, 1.0, size=(3, d))
        var, mean, scale = gaussian_product_reduce(t1, x1, t2, x2, s)
        lhs = heat_density(t1 - s, x1 - y) * heat_density(t2 - s, x2 - y)
        rhs = scale * heat_density(var, y - mean)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_product_reduce_precondition():
    with pytest.raises(ValueError):
        gaussian_product_reduce(1.0, [0.0], 1.0, [0.0], 1.0)
    with pytest.raises(ValueError):
        gaussian_product_reduce(1.0, [0.0], 2.0, [0.0], -0.1)


def test_chapman_kolmogorov():
    # per-dimension 1-D quadrature; the d-dim integral factorizes
    rng = np.random.default_rng(3)
    gx, gw = gauss_legendre(300)
    for d in (1, 2, 3):
        for _ in range(5):
            t = rng.uniform(0.3, 2.0)
            s = rng.uniform(0.05, 0.95) * t
            x = rng.normal(0.0, 1.0, size=d)
            total = 1.0
            for i in range(d):
                y = 12.0 * gx
                vals = (np.exp(-y ** 2 / (2 * s)) / math.sqrt(2 * math.pi * s)
                        * np.exp(-(x[i] - y) ** 2 / (2 * (t - s)))
                        / math.sqrt(2 * math.pi * (t - s)))
                total *= 12.0 * float(gw @ vals)
            assert abs(total - heat_density(t, x)) < 1e-8


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sq_norms_equal_numpy_reductions_bit_for_bit(d):
    rng = np.random.default_rng(290 + d)
    a = rng.normal(size=(20_000, d)) * np.exp(rng.uniform(-30.0, 30.0, size=(20_000, 1)))
    a[::7] = 0.0
    sq = _sq_norms(a)
    assert np.array_equal(sq, np.sum(a * a, axis=1))
    assert np.array_equal(np.sqrt(sq), np.linalg.norm(a, axis=1))
    assert np.array_equal(_sq_norms(np.zeros((3, d))), np.zeros(3))
    assert _sq_norms(a[:0]).shape == (0,)
