import itertools
import math

import numpy as np
import pytest

from parcap.quadrature import (
    GK_MAX_SUBDIV,
    QuadratureError,
    adaptive_gauss_kronrod,
    gauss_legendre,
    panel_rule,
    panels,
    tensor_rule,
)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tensor_rule_integrates_monomials_exactly(d):
    # GL-4 is exact up to degree 7 per axis; on [-1, 1]^d the integral of
    # prod_i x_i^a_i is prod_i 2/(a_i + 1) for even a_i and 0 otherwise
    mesh, wmesh = tensor_rule(*gauss_legendre(4), d)
    assert mesh.shape == (4 ** d, d)
    assert wmesh.shape == (4 ** d,)
    for powers in itertools.product(range(8), repeat=d):
        got = float(wmesh @ np.prod(mesh ** np.array(powers), axis=1))
        want = math.prod(2.0 / (a + 1) if a % 2 == 0 else 0.0 for a in powers)
        assert got == pytest.approx(want, rel=1e-13, abs=1e-14), powers


def test_tensor_rule_last_axis_fastest():
    x, w = np.array([-1.0, 2.0]), np.array([0.25, 0.75])
    mesh, wmesh = tensor_rule(x, w, 2)
    assert mesh.tolist() == [[-1.0, -1.0], [-1.0, 2.0], [2.0, -1.0], [2.0, 2.0]]
    assert wmesh.tolist() == [0.0625, 0.1875, 0.1875, 0.5625]


def test_panels_batch_equals_separate_panel_rules():
    rng = np.random.default_rng(4)
    edges = np.cumsum(rng.uniform(0.05, 1.0, size=(5, 8)), axis=1)  # (K, P + 1)
    nodes, weights = panels(edges, 12)
    assert nodes.shape == weights.shape == (5, 7, 12)
    for k in range(5):
        flat_nodes, flat_weights = panel_rule(edges[k], order=12)
        assert np.array_equal(nodes[k].ravel(), flat_nodes)
        assert np.array_equal(weights[k].ravel(), flat_weights)
        # GL-12 panels integrate x^9 exactly over the whole edge range
        lo, hi = edges[k, 0], edges[k, -1]
        assert flat_weights @ flat_nodes ** 9 == pytest.approx((hi ** 10 - lo ** 10) / 10,
                                                              rel=1e-13)


def test_adaptive_rule_raises_when_it_does_not_converge():
    # a million radians of oscillation: GK_MAX_SUBDIV bisections leave
    # hundreds of periods per interval, so the error estimate stays large
    with pytest.raises(QuadratureError, match=f"after {GK_MAX_SUBDIV} subdivisions"):
        adaptive_gauss_kronrod(lambda s: np.sin(1e6 * s), 0.0, 1.0)
