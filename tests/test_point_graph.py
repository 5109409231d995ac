"""Differential and property tests of the point-cloud neighbour graph and the
batched point filters, PCA normals, position update and noise, against the
per-point loops in ``reference_loops``."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import reference_loops as ref
from denoisekit import (
    PointCloud,
    add_noise,
    estimate_normals_pca,
    filter_point_normals,
    update_point_positions,
)
from denoisekit.bench import _noise_displacements
from denoisekit.meshfilter import POINT_METHODS
from denoisekit.pointcloud import RankDeficientNeighborhood
from conftest import point_spec

TOLERANCE = 1e-12
# the filters whose pairs are weighed by angles and the half radius: the
# batched dots round as the per-point matrix-vector products do, so these
# are bit-identical to the loops (the mean distance sums in another order)
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


def graph_rows(cloud, **size):
    _, neighbors, _, counts = cloud.neighbor_graph(**size)
    return np.split(neighbors, np.cumsum(counts)[:-1])


def assert_graph_matches(points, k, radius):
    cloud, tree = PointCloud(points), cKDTree(points)
    want = [np.sort(np.append(ref.knn(tree, i, k), i)) for i in range(len(points))]
    for got, row in zip(graph_rows(cloud, k=k), want):
        assert np.array_equal(got, row)
    want = [ref.radius_neighbors(tree, i, radius, include_self=True)
            for i in range(len(points))]
    for got, row in zip(graph_rows(cloud, radius=radius), want):
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


def test_knn_ties_go_to_the_lowest_index():
    """Point 43 of the lattice has five neighbours at one spacing (31, 41,
    42, 45 and 55); its three nearest are the three lowest of them."""
    assert graph_rows(PointCloud(grid()), k=3)[43].tolist() == [31, 41, 42, 43]


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
def test_random_cloud_filters_match_reference(cloud, size):
    assert_filters_match(cloud, iterations=2, **size)
    got = update_point_positions(cloud, cloud.normals, radius=1.0, iterations=2)
    want = ref.update_point_positions(cloud, cloud.normals, 1.0, 2)
    assert got[1] == want[1]
    assert np.max(np.abs(got[0] - want[0])) < TOLERANCE
