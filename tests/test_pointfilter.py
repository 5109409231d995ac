import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoisekit import (
    FilterSpec,
    NeighborhoodSpec,
    PointCloud,
    default_radius,
    filter_normals,
    filter_point_normals,
    make_plane,
    update_point_positions,
)
from denoisekit.meshfilter import POINT_METHODS, PRESET
from conftest import max_angle, point_spec, rotation_matrix

SIGMAS = {"li_bilateral": "auto", "digne_bilateral": "auto",
          "zheng_guided_pc": 0.35, "zheng_rolling": 0.35,
          "yadav_vnvt": math.radians(40.0)}


def noisy_plane_cloud(n=12, seed=4, amp=0.1):
    rng = np.random.Generator(np.random.Philox(key=seed))
    xs = np.linspace(0, 1, n)
    pts = np.array([[x, y, 0.0] for y in xs for x in xs])
    pts[:, 2] += rng.normal(0, amp / n, len(pts))
    normals = rng.normal(0, 0.15, (len(pts), 3)) + [0, 0, 1]
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return PointCloud(pts, normals)


# ----------------------------------------------------------------------
# spec

def test_unknown_method():
    with pytest.raises(ValueError):
        point_spec("median", 0.3)


def test_auto_sigma_restricted():
    with pytest.raises(ValueError):
        point_spec("zheng_rolling", "auto")
    point_spec("li_bilateral", "auto")


def test_needs_k_or_radius():
    with pytest.raises(ValueError):
        NeighborhoodSpec("knn")
    for nb in (NeighborhoodSpec("shared_vertex"),
               NeighborhoodSpec("knn", include_self=False, k=8)):
        with pytest.raises(ValueError, match="knn or radius neighborhood"):
            FilterSpec.preset("li_bilateral", neighborhood=nb)


def test_sigma_positive():
    with pytest.raises(ValueError):
        point_spec("zheng_rolling", -1.0)


def test_iterations_positive():
    with pytest.raises(ValueError):
        point_spec("li_bilateral", "auto", iterations=0)


@pytest.mark.parametrize("value", [0.0, -0.1, math.inf, math.nan])
def test_sigma_d_must_be_finite_and_positive(value):
    with pytest.raises(ValueError, match="spatial_sigma must be finite and > 0"):
        point_spec("li_bilateral", "auto", spatial_sigma=value)
    point_spec("li_bilateral", "auto", spatial_sigma=0.1)


def test_spatial_rows_need_a_spatial_sigma():
    """An unset spatial sigma was accepted and failed inside the Gaussian.
    The rows without a spatial weight accepted one and then ignored it: the
    filtered normals were the same with and without it."""
    for method in ("li_bilateral", "zheng_guided_pc", "zheng_rolling"):
        with pytest.raises(ValueError, match="set spatial_sigma"):
            point_spec(method, 0.3, spatial_sigma=None)
    for method in ("digne_bilateral", "yadav_vnvt"):
        assert point_spec(method, 0.3).spatial_sigma is None
        for value in (0.01, "auto"):
            with pytest.raises(ValueError, match="no spatial weight"):
                point_spec(method, 0.3, spatial_sigma=value)


@pytest.mark.parametrize("value", [0.0, -0.1, math.inf, math.nan])
def test_radius_must_be_finite_and_positive(value):
    with pytest.raises(ValueError, match="radius must be finite and > 0"):
        point_spec("li_bilateral", "auto", radius=value)
    point_spec("li_bilateral", "auto", radius=0.1)


POSITIVE = st.floats(1e-3, 1e3)


@st.composite
def point_specs(draw):
    """A spec of a point row on k nearest neighbours or within a radius, with
    "auto" sigmas where the row allows them and a spatial sigma where it has
    a spatial weight."""
    method = draw(st.sampled_from(POINT_METHODS))
    nb = draw(st.builds(lambda k: NeighborhoodSpec("knn", k=k), st.integers(1, 64))
              | st.builds(lambda r: NeighborhoodSpec("radius", r), POSITIVE))
    sigma = st.just("auto") | POSITIVE if PRESET[method].auto_sigma else POSITIVE
    spatial = st.just("auto") | POSITIVE if PRESET[method].spatial else st.none()
    return FilterSpec.preset(method, sigma=draw(sigma), neighborhood=nb,
                             spatial_sigma=draw(spatial), iterations=draw(st.integers(1, 100)))


@settings(max_examples=200, deadline=None)
@given(point_specs())
def test_drawn_point_spec_builds(spec):
    assert replace(spec) == spec


def test_filters_keep_to_their_domain():
    mesh, cloud = make_plane(4), noisy_plane_cloud()
    with pytest.raises(ValueError, match="point filter"):
        filter_normals(mesh, point_spec("li_bilateral", "auto"))
    with pytest.raises(ValueError, match="mesh filter"):
        filter_point_normals(cloud, FilterSpec.preset("zheng_bilateral"))


# ----------------------------------------------------------------------
# normal filtering

@pytest.mark.parametrize("method", POINT_METHODS)
def test_constant_normals_fixed_point(method):
    xs = np.linspace(0, 1, 5)
    pts = np.array([[x, y, 0.0] for y in xs for x in xs])
    normals = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
    cloud = PointCloud(pts, normals)
    spec = point_spec(method, SIGMAS[method], k=6)
    out = filter_point_normals(cloud, spec)
    assert max_angle(out, normals) < 1e-9


@pytest.mark.parametrize("method", POINT_METHODS)
def test_unit_output(method):
    cloud = noisy_plane_cloud()
    spec = point_spec(method, SIGMAS[method], k=8, iterations=2)
    out = filter_point_normals(cloud, spec)
    assert np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0)) < 1e-9


def test_requires_normals():
    cloud = PointCloud(np.random.default_rng(0).normal(size=(20, 3)))
    with pytest.raises(ValueError):
        filter_point_normals(cloud, point_spec("zheng_rolling", 0.3, k=4))


def test_vnvt_outside_support_contributes_zero():
    # two points; the far normal is beyond sigma so only the self term remains
    pts = [[0, 0, 0], [0.1, 0, 0]]
    normals = [[0, 0, 1.0], [1.0, 0, 0]]
    cloud = PointCloud(pts, normals)
    spec = point_spec("yadav_vnvt", math.radians(40.0), k=1)
    out = filter_point_normals(cloud, spec)
    assert np.max(np.abs(out - normals)) < 1e-12


def test_digne_passes_normals_through():
    cloud = noisy_plane_cloud()
    spec = point_spec("digne_bilateral", "auto", k=8)
    out = filter_point_normals(cloud, spec)
    assert np.array_equal(out, cloud.normals)


def test_smoothing_reduces_normal_spread():
    cloud = noisy_plane_cloud()
    for method in ("li_bilateral", "zheng_guided_pc", "zheng_rolling"):
        spec = point_spec(method, SIGMAS[method], k=8, iterations=3)
        out = filter_point_normals(cloud, spec)
        before = max_angle(cloud.normals, np.tile([0.0, 0.0, 1.0], (len(cloud), 1)))
        after = max_angle(out, np.tile([0.0, 0.0, 1.0], (len(cloud), 1)))
        assert after < before, method


def corrugated_cloud(period, n=24, amp=0.05):
    xs = np.linspace(0, 1, n)
    X, Y = np.meshgrid(xs, xs)
    Z = amp * np.sin(2 * np.pi * X / period)
    pts = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    dzdx = amp * (2 * np.pi / period) * np.cos(2 * np.pi * X / period).ravel()
    normals = np.column_stack([-dzdx, np.zeros(n * n), np.ones(n * n)])
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    return PointCloud(pts, normals)


def test_rolling_filter_smooths_fine_scale_more():
    # equal slope amplitude, different wavelengths: within a fixed spatial
    # neighborhood the short wave phase-averages away, the long one is
    # locally linear and survives
    fine = corrugated_cloud(period=0.12, amp=0.05 * 0.12 / 0.9)
    coarse = corrugated_cloud(period=0.9, amp=0.05)
    spec = point_spec("zheng_rolling", 0.4, k=10, iterations=2)
    changes = []
    for cloud in (fine, coarse):
        out = filter_point_normals(cloud, spec)
        dots = np.clip(np.einsum("ij,ij->i", out, cloud.normals), -1, 1)
        changes.append(np.degrees(np.arccos(dots)).mean())
    assert changes[0] > changes[1]


def test_rotation_equivariance():
    cloud = noisy_plane_cloud()
    R = rotation_matrix([1, -1, 2], 0.8)
    rotated = PointCloud(cloud.points @ R.T, cloud.normals @ R.T)
    for method in POINT_METHODS:
        spec = point_spec(method, SIGMAS[method], k=8)
        a = filter_point_normals(cloud, spec) @ R.T
        b = filter_point_normals(rotated, spec)
        assert max_angle(a, b) < 1e-6, method


# ----------------------------------------------------------------------
# position update

def test_exact_plane_no_motion():
    xs = np.linspace(0, 1, 8)
    pts = np.array([[x, y, 0.0] for y in xs for x in xs])
    normals = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
    cloud = PointCloud(pts, normals)
    new, warn = update_point_positions(cloud, normals, radius=0.5)
    assert warn == 0
    assert np.max(np.abs(new - pts)) < 1e-12


def test_outlier_moves_toward_plane():
    xs = np.linspace(0, 1, 12)
    pts = [[x, y, 0.0] for y in xs for x in xs]
    pts.append([0.5, 0.5, 0.08])
    pts = np.array(pts)
    normals = np.tile([0.0, 0.0, 1.0], (len(pts), 1))
    cloud = PointCloud(pts, normals)
    new, _ = update_point_positions(cloud, normals, radius=0.3)
    assert abs(new[-1, 2]) < 0.08


def test_motion_is_along_normals():
    cloud = noisy_plane_cloud()
    new, _ = update_point_positions(cloud, cloud.normals, radius=0.4)
    disp = new - cloud.points
    cross = np.cross(disp, cloud.normals)
    assert np.max(np.linalg.norm(cross, axis=1)) < 1e-12


def test_empty_neighborhood_warns():
    cloud = PointCloud([[0, 0, 0], [10, 0, 0]],
                       [[0, 0, 1], [0, 0, 1]])
    new, warn = update_point_positions(cloud, cloud.normals, radius=0.1)
    assert warn == 2
    assert np.array_equal(new, cloud.points)


def test_default_radius_heuristic():
    rng = np.random.Generator(np.random.Philox(key=6))
    pts = rng.uniform(0, 1, (1000, 3))
    pts = (pts - pts.min(axis=0)) / np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))
    cloud = PointCloud(pts)
    r = default_radius(cloud)
    assert abs(r - math.sqrt(20.0 / 1000.0)) < 1e-12
    assert abs(r - 0.1414) < 1e-3


def test_translation_invariance_of_update():
    cloud = noisy_plane_cloud()
    t = np.array([5.0, -3.0, 2.0])
    shifted = PointCloud(cloud.points + t, cloud.normals)
    a, _ = update_point_positions(cloud, cloud.normals, radius=0.4)
    b, _ = update_point_positions(shifted, cloud.normals, radius=0.4)
    assert np.max(np.abs((a + t) - b)) < 1e-9
