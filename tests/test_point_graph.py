"""Differential and property tests of the point-cloud neighbour graph and the
batched point filters, PCA normals, position update and noise, against the
per-point loops in ``reference_loops``."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import reference_loops as ref
from denoisekit import (
    PointCloud,
    add_noise,
    estimate_normals_pca,
    filter_point_normals,
    pointfilter,
    update_point_positions,
)
from denoisekit.bench import _noise_displacements
from denoisekit.meshfilter import POINT_METHODS
from denoisekit.pointcloud import RankDeficientNeighborhood
from conftest import ball, knn, point_spec

TOLERANCE = 1e-12
# the filters whose pairs are weighed by angles and the half radius: the
# dots add the column products in the loops' order, so these are
# bit-identical to the loops (the mean distance sums in another order)
EXACT = ("li_bilateral", "digne_bilateral", "yadav_vnvt")
SIGMAS = {"li_bilateral": "auto", "digne_bilateral": "auto",
          "zheng_guided_pc": 0.35, "zheng_rolling": 0.35,
          "yadav_vnvt": math.radians(40.0)}


def unit_rows(a):
    return a / np.linalg.norm(a, axis=1)[:, None]


def sphere(n=300, seed=3):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return unit_rows(rng.normal(size=(n, 3)))


def grid():
    """A 6 x 6 x 2 lattice with a spacing of 1/8, so distances are exact:
    every point has several neighbours at the same distance, kNN rows cut
    through such ties, and radii of whole spacings hit distances exactly."""
    return np.array([[x, y, z] for x in range(6) for y in range(6) for z in range(2)],
                    dtype=float) / 8


def duplicates():
    """Points repeated three times plus a pile of five at the origin."""
    base = sphere(40, seed=5)
    return np.vstack([base, base, base, np.zeros((5, 3))])


CLOUDS = {"sphere": sphere, "grid": grid, "duplicates": duplicates}


def with_normals(points, seed=7):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return PointCloud(points, unit_rows(rng.normal(size=(len(points), 3)) + [0, 0, 2]))


def graph_rows(cloud, spec):
    _, neighbors, _, counts = cloud.neighbor_graph(spec)
    return np.split(neighbors, np.cumsum(counts)[:-1])


def assert_graph_matches(points, k, radius):
    cloud, tree = PointCloud(points), cKDTree(points)
    want = [np.sort(np.append(ref.knn(tree, i, k), i)) for i in range(len(points))]
    for got, row in zip(graph_rows(cloud, knn(k)), want):
        assert np.array_equal(got, row)
    want = [ref.ball_neighbors(points, i, radius) for i in range(len(points))]
    for got, row in zip(graph_rows(cloud, ball(radius)), want):
        assert np.array_equal(got, row)


def assert_filters_match(cloud, iterations=3, **size):
    for method in POINT_METHODS:
        spec = point_spec(method, SIGMAS[method], iterations=iterations, **size)
        got = filter_point_normals(cloud, spec)
        want = ref.filter_point_normals(cloud, spec)
        if method in EXACT:
            assert np.array_equal(got, want), method
        assert np.max(np.abs(got - want), initial=0.0) < TOLERANCE, method


@pytest.mark.parametrize("shape", CLOUDS)
@pytest.mark.parametrize("k, radius", [(1, 0.125), (4, 0.25), (12, 0.375)])
def test_graph_matches_reference(shape, k, radius):
    assert_graph_matches(CLOUDS[shape](), k, radius)


# two points whose numpy distance is the radius; the tree's own distance rounds above it
AT_RADIUS = np.array([[0.1257302210933933, -0.1321048632913019, 0.6404226504432821],
                      [0.10490011715303971, -0.535669373161111, 0.36159505490948474]])
RADIUS = 0.4909613374674059


def test_radius_pair_at_exactly_the_radius_is_kept():
    """The two points are neighbours, as two faces are."""
    assert np.linalg.norm(AT_RADIUS[0] - AT_RADIUS[1]) == RADIUS
    assert PointCloud(AT_RADIUS).neighbor_graph(ball(RADIUS))[3].tolist() == [2, 2]


def test_position_update_keeps_a_pair_at_exactly_the_radius():
    """The position update takes the radius graph's pairs: each point of the
    pair moves, and none counts as an empty neighbourhood."""
    cloud = with_normals(AT_RADIUS)
    got, warn = update_point_positions(cloud, cloud.normals, radius=RADIUS)
    want, want_warn = ref.update_point_positions(cloud, cloud.normals, RADIUS, 1)
    assert warn == want_warn == 0
    assert not np.array_equal(got, AT_RADIUS)
    assert np.max(np.abs(got - want)) < TOLERANCE


def test_knn_ties_go_to_the_lowest_index():
    """Point 43 of the lattice has five neighbours at one spacing (31, 41,
    42, 45 and 55); its three nearest are the three lowest of them."""
    assert graph_rows(PointCloud(grid()), knn(3))[43].tolist() == [31, 41, 42, 43]


@pytest.mark.parametrize("shape", CLOUDS)
@pytest.mark.parametrize("size", [{"k": 8}, {"radius": 0.3}])
def test_filters_match_reference(shape, size):
    assert_filters_match(with_normals(CLOUDS[shape]()), **size)


@pytest.mark.parametrize("points", [
    lambda: add_noise(PointCloud(sphere(400)), 0.3, 42).points,
    grid,
    lambda: np.vstack([sphere(60), sphere(60) + [5.0, 0.0, 0.0]]),
])
@pytest.mark.parametrize("orient", [False, True])
def test_pca_normals_match_reference(points, orient):
    """Each covariance sums the point and then its neighbours nearest first,
    as the loop did, so the normals are bit-identical."""
    cloud = PointCloud(points())
    ref_dir = unit_rows(cloud.points - cloud.points.mean(axis=0)) if orient else None
    for k in (3, 6, 12):
        got = estimate_normals_pca(cloud, k, orient_to=ref_dir)
        assert np.array_equal(got, ref.estimate_normals_pca(cloud, k, orient_to=ref_dir))


def folded_sheet(nx, ny, rho):
    """A unit grid in the plane z = 0 curled over a half cylinder of radius
    rho into the plane z = 2 rho, and a strip in the plane x = -1/2 below the
    bottom grid's edge x = 0 (spacing 1/4 along y, 2/5 down). With k = 3 each
    strip point's neighbours lie in the strip, so its PCA normal is exactly
    +x, and those of an edge point of the bottom grid are three strip points
    at z = 0, so its normal is exactly +z: the tree joins the strip by an
    edge whose dot is exactly 0, to a bottom point whose sign the curl flips."""
    x, y = (c.ravel() for c in np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij"))
    bottom = np.column_stack([x, y, np.zeros(len(x))]).astype(float)
    m = math.ceil(math.pi * rho)
    turn, yc = (c.ravel() for c in np.meshgrid(np.arange(1, m) * math.pi / m, np.arange(ny),
                                                indexing="ij"))
    curl = np.column_stack([nx - 1 + rho * np.sin(turn), yc, rho - rho * np.cos(turn)])
    ys, zs = (c.ravel() for c in np.meshgrid(np.arange(-2, 4 * ny + 1) / 4, -np.arange(3) * 0.4,
                                             indexing="ij"))
    strip = np.column_stack([np.full(len(ys), -0.5), ys, zs])
    return np.vstack([bottom + [0, 0, 2 * rho], curl, bottom, strip])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(8, 40), st.integers(0, 2**32 - 1)), min_size=1, max_size=4),
       st.sampled_from([3, 4, 6]),
       st.one_of(st.none(), st.tuples(st.integers(3, 5), st.integers(2, 5),
                                      st.sampled_from([1.5, 2.0, 2.5]))))
@example([(30, 1), (12, 2)], 3, (4, 4, 1.5))  # both seeds' normals point down
def test_random_cloud_orientation_matches_reference(clusters, k, sheet):
    """Clusters 100 apart, each its own component, and maybe a folded sheet
    (with k = 3): the tree walk and pointer doubling give the loop's bits.
    The strip keeps its +x normals although its parent on the sheet is flipped
    to -z, as the loop's `dot < 0` leaves a child with a zero dot unflipped."""
    parts = [np.random.Generator(np.random.Philox(key=seed)).normal(size=(m, 3))
             for m, seed in clusters]
    if sheet is not None:
        k = 3
        parts.append(folded_sheet(*sheet))
    cloud = PointCloud(np.vstack([p + [100.0 * c, 0, 0] for c, p in enumerate(parts)]))
    got = estimate_normals_pca(cloud, k)
    assert np.array_equal(got, ref.estimate_normals_pca(cloud, k))
    if sheet is not None:
        strip = cloud.points[:, 0] == 100.0 * len(clusters) - 0.5
        edge = (cloud.points[:, 0] == 100.0 * len(clusters)) & (cloud.points[:, 2] == 0)
        assert (got[strip] == [1, 0, 0]).all() and (got[edge] == [0, 0, -1]).all()


def test_pca_rank_deficiency_matches_reference():
    pts = np.vstack([sphere(20), np.zeros((6, 3))])
    for fn in (estimate_normals_pca, ref.estimate_normals_pca):
        with pytest.raises(RankDeficientNeighborhood, match="point 20$"):
            fn(PointCloud(pts), 4)


@pytest.mark.parametrize("radius", [0.05, 0.2, 0.5])
def test_position_update_matches_reference(radius):
    """At 0.05 most points of the noisy sphere have no neighbour: they stay
    put and count as warnings in every iteration."""
    cloud = with_normals(add_noise(PointCloud(sphere(400)), 0.3, 42).points)
    got, got_warn = update_point_positions(cloud, cloud.normals, radius=radius, iterations=3)
    want, want_warn = ref.update_point_positions(cloud, cloud.normals, radius, 3)
    assert got_warn == want_warn
    assert np.max(np.abs(got - want)) < TOLERANCE
    if radius == 0.05:
        assert want_warn > len(cloud)


@pytest.mark.parametrize("shape", [*CLOUDS, "random"])
def test_cloud_noise_is_bit_identical(shape):
    """The spacing takes each nearest-neighbour distance as the loop did: a
    distance one bit off shifts the mean spacing of some of the random
    clouds."""
    rng = np.random.Generator(np.random.Philox(key=4))
    clouds = ([CLOUDS[shape]()] if shape in CLOUDS else
              [rng.normal(size=(n, 3)) * rng.uniform(0.1, 10) for n in [50, 300, 2000] * 6])
    for points in clouds:
        noisy = add_noise(PointCloud(points), 0.3, 11).points
        sigma = 0.3 * ref.noise_spacing(points)
        assert np.array_equal(noisy, points + _noise_displacements(len(points), sigma, 11))


def test_position_update_with_duplicated_points_matches_reference():
    """Pairs at distance 0 weigh 1 in space, and a pile of five points at the
    origin moves together."""
    cloud = with_normals(duplicates())
    got, got_warn = update_point_positions(cloud, cloud.normals, radius=0.3, iterations=3)
    want, want_warn = ref.update_point_positions(cloud, cloud.normals, 0.3, 3)
    assert got_warn == want_warn
    assert np.max(np.abs(got - want)) < TOLERANCE


@pytest.mark.parametrize("block", [1000, 1 << 20])
def test_position_update_does_not_depend_on_the_block(monkeypatch, block):
    """About 45,000 pairs: 46 blocks of 1,000, three of the default size or
    one. Only the order of the per-block sums moves, by at most 1e-15."""
    cloud = with_normals(add_noise(PointCloud(sphere(2000)), 0.3, 42).points)
    want, want_warn = update_point_positions(cloud, cloud.normals, radius=0.3, iterations=2)
    monkeypatch.setattr(pointfilter, "_PAIR_BLOCK", block)
    got, got_warn = update_point_positions(cloud, cloud.normals, radius=0.3, iterations=2)
    assert got_warn == want_warn
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_position_update_memory_is_bounded():
    """About 200 neighbours per point: one batch of all 150k pairs would
    hold over 20 MiB of float temporaries; the blocks hold under 1 MiB on
    top of the 2.4 MiB pair array."""
    rng = np.random.Generator(np.random.Philox(key=2))
    pts = np.column_stack([rng.uniform(0, 1, (1500, 2)), rng.normal(0, 1e-3, 1500)])
    cloud = PointCloud(pts, np.tile([0.0, 0.0, 1.0], (1500, 1)))
    tracemalloc.start()
    try:
        update_point_positions(cloud, cloud.normals, radius=0.2, iterations=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, peak


# ----------------------------------------------------------------------
# property tests on random small clouds

@st.composite
def small_clouds(draw):
    """Points on a coarse lattice, so that duplicates and equal distances
    are common, with random normals."""
    n = draw(st.integers(2, 30))
    coords = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * 3), min_size=n, max_size=n))
    return with_normals(np.array(coords, dtype=float) * 0.5, seed=draw(st.integers(0, 2**32)))


@settings(max_examples=60, deadline=None)
@given(small_clouds(), st.integers(1, 6), st.sampled_from([0.5, 1.0, 1.5]))
def test_random_cloud_graph_matches_reference(cloud, k, radius):
    assert_graph_matches(cloud.points, min(k, len(cloud) - 1), radius)


@settings(max_examples=30, deadline=None)
@given(small_clouds(), st.sampled_from([{"k": 3}, {"k": 8}, {"radius": 1.0}]))
@example(with_normals(AT_RADIUS), {"radius": RADIUS})
def test_random_cloud_filters_match_reference(cloud, size):
    """The position update runs at the neighbourhood's radius, or at 1.0."""
    assert_filters_match(cloud, iterations=2, **size)
    radius = size.get("radius", 1.0)
    got = update_point_positions(cloud, cloud.normals, radius=radius, iterations=2)
    want = ref.update_point_positions(cloud, cloud.normals, radius, 2)
    assert got[1] == want[1]
    assert np.max(np.abs(got[0] - want[0])) < TOLERANCE
