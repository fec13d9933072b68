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
    Thorn,
    TimeSliceBall,
    contains,
    discretize,
    region_from_dict,
    region_to_dict,
    sample_uniform,
)
from parcap.stochastic_sim import (
    BranchingConfig,
    estimate_graph_hit,
    estimate_graph_hits,
    graph_hit_run_records,
)


def test_thorn_contains():
    thorn = Thorn("constant", 1.0, 0.0, 1.0, d=2)
    # |y| = 0.4 < sqrt(0.25) * 1 = 0.5
    assert contains(thorn, [0.25, 0.4, 0.0])
    assert not contains(thorn, [0.25, 0.5, 0.0])
    assert not contains(thorn, [1.5, 0.0, 0.0])


def test_spatial_ball_is_open():
    ball = SpatialBall((0.0, 0.0), 1.0)
    assert not contains(ball, [1.0, 0.0])
    assert contains(ball, [0.999, 0.0])


def test_union_of_disjoint_boxes():
    b1 = SpaceTimeBox(1.0, 2.0, (0.0,), (1.0,))
    b2 = SpaceTimeBox(3.0, 4.0, (5.0,), (6.0,))
    u = RegionUnion((b1, b2))
    assert contains(u, [3.5, 5.5])
    assert not contains(u, [2.5, 0.5])


def test_slice_of_general_base():
    reg = SliceOf(1.0, SpatialAnnulus((0.0, 0.0), 0.3, 0.6))
    assert contains(reg, [1.0, 0.45, 0.0])
    assert not contains(reg, [1.0, 0.1, 0.0])
    assert not contains(reg, [0.9, 0.45, 0.0])


def test_dimension_mismatch_raises():
    with pytest.raises(RegionError):
        contains(SpatialBall((0.0, 0.0), 1.0), [0.1])


def test_discretize_ball_d1():
    cloud = discretize(SpatialBall((0.0,), 1.0), 0.5)
    assert sorted(cloud.coords[:, 0]) == pytest.approx([-0.75, -0.25, 0.25, 0.75])
    assert cloud.volume == pytest.approx(0.5)
    assert cloud.times is None


def test_discretize_box():
    cloud = discretize(SpaceTimeBox(1.0, 2.0, (0.0,), (1.0,)), 0.5)
    assert cloud.n == 4
    assert cloud.volume == pytest.approx(0.25)
    assert sorted(set(np.round(cloud.times, 10))) == pytest.approx([1.25, 1.75])


def test_discretize_area_converges():
    cloud = discretize(SpatialBall((0.0, 0.0), 1.0), 0.02)
    area = cloud.n * cloud.volume
    assert abs(area - math.pi) / math.pi < 0.02


def test_discretize_slice_records_time():
    cloud = discretize(TimeSliceBall(2.0, (0.0, 0.0), 0.5), 0.25)
    assert cloud.is_slice
    assert np.all(cloud.times == 2.0)
    assert cloud.volume == pytest.approx(0.25 ** 2)


def test_discretize_centers_distinct_and_inside():
    for region in (SpatialBall((0.2, -0.1), 0.7),
                   Thorn("power", 0.5, 0.1, 0.9, d=1),
                   SpatialAnnulus((0.0, 0.0), 0.3, 0.9),
                   TimeSliceBall(1.0, (0.0,), 0.6)):
        cloud = discretize(region, 0.05)
        if cloud.times is None:
            pts = cloud.coords
        else:
            pts = np.column_stack([cloud.times, cloud.coords])
        assert len(np.unique(pts, axis=0)) == cloud.n
        assert np.all(contains(region, pts))


def test_discretize_empty_raises():
    with pytest.raises(RegionError):
        discretize(SpatialBall((0.0, 0.0), 0.01), 0.5)


def test_sample_uniform_mean():
    pts = sample_uniform(SpatialBall((0.0, 0.0), 1.0), 100_000, seed=5)
    assert np.all(contains(SpatialBall((0.0, 0.0), 1.0), pts))
    assert np.max(np.abs(pts.mean(axis=0))) < 0.02


def test_sample_uniform_empty_and_deterministic():
    assert sample_uniform(SpatialBall((0.0,), 1.0), 0, seed=1).shape == (0, 1)
    a = sample_uniform(Thorn("constant", 1.0, 0.1, 0.9, d=2), 500, seed=9)
    b = sample_uniform(Thorn("constant", 1.0, 0.1, 0.9, d=2), 500, seed=9)
    assert np.array_equal(a, b)
    assert np.all(contains(Thorn("constant", 1.0, 0.1, 0.9, d=2), a))


def test_sample_uniform_rejection_guard():
    # two tiny balls spanning a huge bounding box: acceptance below 1e-4
    bad = RegionUnion((SpatialBall((0.0, 0.0, 0.0), 0.01),
                       SpatialBall((1000.0, 0.0, 0.0), 0.01)))
    with pytest.raises(RuntimeError, match="acceptance rate"):
        sample_uniform(bad, 100, seed=0)


def test_validation_errors():
    with pytest.raises(RegionError):
        SpatialBall((0.0,), -1.0)
    with pytest.raises(RegionError):
        SpatialAnnulus((0.0,), 0.5, 0.4)
    with pytest.raises(RegionError):
        SpaceTimeBox(2.0, 1.0, (0.0,), (1.0,))
    with pytest.raises(RegionError):
        Thorn("invlog", 1.0, 0.0, 1.5)  # invlog profile blows up at t = 1
    with pytest.raises(RegionError):
        RegionUnion((SpatialBall((0.0,), 1.0),
                     SpaceTimeBox(1.0, 2.0, (0.0,), (1.0,))))


def test_json_round_trip():
    regions = [
        TimeSliceBall(1.0, (0.0, 0.5), 0.3),
        SliceOf(1.0, SpatialBall((0.0, 0.5), 0.3)),
        SliceOf(2.0, SpatialAnnulus((0.0,), 0.2, 0.4)),
        SpaceTimeBox(0.5, 1.5, (-1.0, -1.0), (1.0, 1.0)),
        Thorn("invlog", 2.0, 0.0, 0.5, d=3),
        RegionUnion((SpatialBall((0.0,), 0.5), SpatialBall((2.0,), 0.25))),
    ]
    for reg in regions:
        assert region_from_dict(region_to_dict(reg)) == reg
    with pytest.raises(RegionError):
        region_from_dict({"radius": 1.0})
    with pytest.raises(RegionError):
        region_from_dict({"kind": "ball", "radius": 1.0})


def test_time_slice_ball_equals_slice_of_ball():
    tsb = TimeSliceBall(1.0, (0.1, -0.2), 0.45)
    gen = SliceOf(1.0, SpatialBall((0.1, -0.2), 0.45))
    assert (tsb.center, tsb.radius) == ((0.1, -0.2), 0.45)
    pts = np.random.default_rng(3).uniform(-0.8, 0.8, size=(500, 3))
    pts[::2, 0] = 1.0
    assert np.array_equal(contains(tsb, pts), contains(gen, pts))
    a, b = discretize(tsb, 0.05), discretize(gen, 0.05)
    assert np.array_equal(a.coords, b.coords) and np.array_equal(a.times, b.times)
    cfg = BranchingConfig(n_particles=100, dt=0.01, horizon=1.0, d=2)
    assert estimate_graph_hit(cfg, tsb, 200, seed=4) == estimate_graph_hit(cfg, gen, 200, seed=4)
    assert (graph_hit_run_records(cfg, tsb, 5, seed=4)
            == graph_hit_run_records(cfg, gen, 5, seed=4))


def test_overlapping_slice_union_shares_one_grid():
    a = TimeSliceBall(1.0, (0.0, 0.0), 0.5)
    b = TimeSliceBall(1.0, (0.2, 0.0), 0.5)
    cloud = discretize(RegionUnion((a, b)), 0.1)
    assert cloud.n == 100
    assert len(np.unique(cloud.coords, axis=0)) == cloud.n
    shared = discretize(SliceOf(1.0, RegionUnion((a.base, b.base))), 0.1)
    assert np.array_equal(cloud.coords, shared.coords)
    assert np.array_equal(cloud.times, shared.times)
    # a second slice time gets its own grid, after the first
    later = TimeSliceBall(2.0, (0.0, 0.0), 0.5)
    cloud = discretize(RegionUnion((a, later, b)), 0.1)
    assert cloud.is_slice
    assert np.array_equal(cloud.times, np.repeat([1.0, 2.0], [100, discretize(later, 0.1).n]))


def test_union_of_slice_and_solid():
    piece, box = TimeSliceBall(1.0, (0.0,), 0.5), SpaceTimeBox(2.0, 3.0, (-1.0,), (1.0,))
    u = RegionUnion((piece, box))
    with pytest.raises(RegionError, match="volumes"):
        discretize(u, 0.1)
    assert list(contains(u, [[1.0, 0.2], [2.5, 0.9], [1.5, 0.0]])) == [True, True, False]
    cfg = BranchingConfig(n_particles=20, dt=0.01, horizon=3.0, d=1)
    hu, hs, hb = (e.hits for e in estimate_graph_hits(cfg, [u, piece, box], 40, seed=2))
    assert 0 < max(hs, hb) <= hu <= hs + hb


def test_sample_uniform_union_of_slices():
    a = TimeSliceBall(1.0, (0.0, 0.0), 0.5)
    b = SliceOf(1.0, SpatialAnnulus((1.0, 0.0), 0.2, 0.4))
    pts = sample_uniform(RegionUnion((a, b)), 300, seed=8)
    bases = RegionUnion((a.base, b.base))
    assert np.array_equal(pts, sample_uniform(bases, 300, seed=8))
    assert np.all(contains(bases, pts))
    with pytest.raises(RegionError, match="one common slice time"):
        sample_uniform(RegionUnion((a, TimeSliceBall(2.0, (0.0, 0.0), 0.5))), 10, seed=8)


def test_max_norm_is_farthest_point():
    # oracle: largest |x| over dense membership samples of each set
    regions = [SpatialBall((0.6, 0.6), 0.3), SpatialAnnulus((0.0, -0.2), 0.3, 0.5),
               RegionUnion((SpatialBall((-0.5, 0.0), 0.25), SpatialBall((0.55, 0.0), 0.25)))]
    for reg in regions:
        pts = sample_uniform(reg, 200_000, seed=3)
        far = float(np.max(np.linalg.norm(pts, axis=1)))
        assert far <= reg.max_norm() <= far + 2e-3
    assert SpatialBall((0.6, 0.6), 0.3).max_norm() == pytest.approx(0.6 * math.sqrt(2) + 0.3)
    assert SpatialBall((0.0, 0.0), 0.9).max_norm() == 0.9


def test_graph_segment_hits_flags_each_segment():
    from parcap.stochastic_sim import GraphHitDetector
    box = SpaceTimeBox(0.5, 1.0, (-1.0,), (1.0,))
    piece = SliceOf(0.4, SpatialBall((0.0,), 0.5))
    ta = np.array([0.35, 0.3, 0.5, 0.2, 0.3])
    tb = np.array([0.45, 0.6, 0.7, 0.3, 0.5])
    pa = np.array([[1.2], [0.0], [2.0], [0.0], [-0.2]])
    pb = np.array([[0.0], [0.3], [0.5], [0.0], [0.8]])
    # the crossings of t = 0.4 sit at x = 0.6, 0.1, -, -, 0.3: the first and
    # last disagree with their end points on the slice ball
    want_box = [False, True, True, False, False]
    want_slice = [False, True, False, False, True]
    got = box.graph_segment_hits(ta, tb, pa, pb)
    assert got.dtype == bool and got.tolist() == want_box
    assert piece.graph_segment_hits(ta, tb, pa, pb).tolist() == want_slice
    both = RegionUnion((box, piece)).graph_segment_hits(ta, tb, pa, pb)
    assert both.tolist() == [a or b for a, b in zip(want_box, want_slice)]
    det = GraphHitDetector([box, piece], runs=3)
    det.observe(ta, tb, pa, pb, np.array([0, 0, 1, 2, 2]))
    assert det.hits.tolist() == [[True, True, False], [True, False, True]]
    assert det.flags == [True, True]
