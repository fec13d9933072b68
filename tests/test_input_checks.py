"""Refusals and edge values that the other test files do not reach: each
call below raises the named exception with the given message, or returns
the given value."""

import re

import numpy as np
import pytest

from parcap.capacity_solver import assemble_kernel_matrix
from parcap.energy_kernel import (
    PARABOLIC,
    DiscreteMeasure,
    cap_prime_kernel,
    energy_mc_paths,
    mutual_kernel,
    mutual_kernel_bruteforce,
    newtonian_kernel,
)
from parcap.heat_kernel import SpaceTimePoint, bridge_weight
from parcap.hermite_ops import (
    BoxProfile,
    BumpProfile,
    h_field,
    hermite_orthogonality,
    hermite_value,
    hermite_value_1d,
    lambda_family_on_hermite,
)
from parcap.quadrature import geometric_edges
from parcap.region import (
    CellCloud,
    RegionError,
    SliceOf,
    SpaceTimeBox,
    SpatialBall,
    region_to_dict,
    sample_uniform,
)
from parcap.stochastic_sim import estimate_range_hit

_Z1 = SpaceTimePoint(1.0, [0.0])
_Z2 = SpaceTimePoint(1.0, [0.0, 0.0])
_BOX = SpaceTimeBox(0.5, 1.0, (0.0,), (1.0,))

_REFUSALS = {
    "empty_cloud": (lambda: assemble_kernel_matrix(
        CellCloud(_BOX, 0.1, np.empty((0, 1)), np.empty(0), 0.01), PARABOLIC),
        ValueError, "empty cell cloud"),
    "mutual_mixed_d": (lambda: mutual_kernel(_Z1, _Z2), ValueError, "dimension mismatch"),
    "cap_prime_mixed_d": (lambda: cap_prime_kernel(_Z1, _Z2), ValueError,
                          "dimension mismatch"),
    "bruteforce_same_point": (lambda: mutual_kernel_bruteforce(_Z1, _Z1), ValueError,
                              "bruteforce oracle requires distinct points"),
    "newtonian_d1": (lambda: newtonian_kernel([0.0], [1.0], 1), ValueError,
                     "newtonian kernel needs d >= 2"),
    "mc_paths_spatial": (lambda: energy_mc_paths(DiscreteMeasure(None, [[0.0]], [1.0]),
                                                 4, 0.1, 0),
                         ValueError, "path estimator needs a space-time measure"),
    "point_no_space": (lambda: SpaceTimePoint(1.0, []), ValueError,
                       "spatial dimension must be >= 1"),
    "bridge_wrong_d": (lambda: bridge_weight(_Z1, 0.5, [0.0, 0.0]), ValueError,
                       "dimension mismatch"),
    "box_profile_sizes": (lambda: BoxProfile([0, 1, 2], [1.0]), ValueError,
                          "need len(edges) == len(values) + 1"),
    "hermite_value_wrong_d": (lambda: hermite_value((1, 1), [0.5]), ValueError,
                              "dimension mismatch between index and point"),
    "index_numpy_float": (lambda: hermite_value_1d(np.float32(1.5), [0.5]), ValueError,
                          "index entries must be integers, got np.float32(1.5)"),
    "count_zero_d_array": (lambda: sample_uniform(SpatialBall((0.0,), 1.0), np.array(2.5), 0),
                           ValueError, "n must be a whole number >= 0, got array(2.5)"),
    "orthogonality_mixed_d": (lambda: hermite_orthogonality((1,), (1, 0), 1.0), ValueError,
                              "index dimension mismatch"),
    "no_panels": (lambda: geometric_edges(0, 1, 0), ValueError, "n_panels must be >= 1"),
    "slice_of_box": (lambda: SliceOf(1.0, _BOX), RegionError,
                     "slice base must be a spatial region"),
    "box_mixed_d": (lambda: SpaceTimeBox(0.5, 1.0, (0.0,), (1.0, 1.0)), RegionError,
                    "corner dimension mismatch"),
    "box_corners_swapped": (lambda: SpaceTimeBox(0.5, 1.0, (1.0,), (0.0,)), RegionError,
                            "corner_lo must be strictly below corner_hi"),
    "unknown_region": (lambda: region_to_dict(object()), RegionError,
                       "unknown region type object"),
    "range_d1": (lambda: estimate_range_hit(1, (0.0,), SpatialBall((0.5,), 0.1), 0.01, 10, 0),
                 ValueError, "range hitting needs d >= 2"),
}


@pytest.mark.parametrize("name", list(_REFUSALS))
def test_refusal_names_its_reason(name):
    call, kind, message = _REFUSALS[name]
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        call()


_PROFILE = BumpProfile(0.2, 1.2)


@pytest.mark.parametrize("call, want", [
    (lambda: hermite_value((2,), 0.5), -0.75),  # He_2(u) = u^2 - 1
    (lambda: h_field((1,), _PROFILE, 0.0, [0.3]), 0.0),
    (lambda: lambda_family_on_hermite("lambda1", (1,), _PROFILE, 0.0, [0.3]), 0.0),
], ids=["he2_scalar_point", "h_field_t0", "family_t0"])
def test_edge_values(call, want):
    assert call() == want
