import json
import math

import numpy as np
import pytest

from denoisekit import (
    MetricsReport,
    PointCloud,
    TriMesh,
    add_noise,
    compare,
    make_cube,
    make_icosphere,
    make_plane,
    make_shape,
    make_wedge,
)
from conftest import rotation_matrix


# ----------------------------------------------------------------------
# shapes

def test_cube2_counts_and_volume():
    m = make_cube(2)
    assert len(m.faces) == 24
    assert len(m.vertices) == 14
    assert abs(m.volume() - 1.0) < 1e-12
    m3 = make_cube(3, scale=2.0)
    assert len(m3.faces) == 24 * 4
    assert abs(m3.volume() - 8.0) < 1e-12


def test_plane3():
    m = make_plane(3)
    assert len(m.vertices) == 9 and len(m.faces) == 8
    assert np.max(np.abs(m.face_normals - [0, 0, 1])) < 1e-12


def test_icosphere_volume():
    v = make_icosphere(2).volume()
    assert abs(v - 4 * math.pi / 3) / (4 * math.pi / 3) < 0.05


def test_wedge_watertight():
    m = make_wedge()
    assert m.is_edge_manifold()
    assert all(len(fs) == 2 for fs in m.edge_faces)
    assert abs(m.volume() - 0.96) < 1e-12


def test_make_shape_dispatch():
    assert len(make_shape("cube", 2).faces) == 24
    assert len(make_shape("wedge").faces) > 0
    with pytest.raises(ValueError):
        make_shape("torus")
    with pytest.raises(ValueError):
        make_cube(1)
    with pytest.raises(ValueError):
        make_plane(1)
    with pytest.raises(ValueError, match="level must be >= 0"):
        make_shape("icosphere", -1)  # was the 20-face level-0 sphere


# ----------------------------------------------------------------------
# noise

def test_zero_noise_identity():
    m = make_cube(3)
    n = add_noise(m, 0.0, 7)
    assert np.array_equal(n.vertices, m.vertices)


def test_noise_deterministic():
    m = make_cube(3)
    a = add_noise(m, 0.3, 7)
    b = add_noise(m, 0.3, 7)
    c = add_noise(m, 0.3, 8)
    assert np.array_equal(a.vertices, b.vertices)
    assert not np.array_equal(a.vertices, c.vertices)


def test_noise_magnitude_statistics():
    m = make_plane(100)  # 10^4 vertices
    factor = 0.2
    noisy = add_noise(m, factor, 1)
    disp = noisy.vertices - m.vertices
    mags = np.linalg.norm(disp, axis=1)
    sigma = factor * m.avg_edge_length
    # |N(0, sigma^2)| has std sigma * sqrt(1 - 2/pi)
    expect = sigma * math.sqrt(1.0 - 2.0 / math.pi)
    assert abs(np.std(mags) - expect) / expect < 0.05


def test_noise_isotropy():
    m = make_plane(100)
    noisy = add_noise(m, 0.2, 2)
    disp = noisy.vertices - m.vertices
    sigma = 0.2 * m.avg_edge_length
    assert np.linalg.norm(disp.mean(axis=0)) < 0.05 * sigma


def test_noise_on_point_cloud():
    rng = np.random.Generator(np.random.Philox(key=5))
    cloud = PointCloud(rng.uniform(0, 1, (200, 3)))
    noisy = add_noise(cloud, 0.3, 4)
    assert not np.array_equal(noisy.points, cloud.points)
    again = add_noise(cloud, 0.3, 4)
    assert np.array_equal(noisy.points, again.points)


def test_noise_negative_factor():
    with pytest.raises(ValueError):
        add_noise(make_cube(2), -0.1, 0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_noise_non_finite_factor(value):
    """NaN or infinite noise wrote NaN or infinite coordinates."""
    for obj in (make_cube(2), PointCloud(make_cube(2).vertices)):
        with pytest.raises(ValueError, match="sigma_factor must be finite and >= 0"):
            add_noise(obj, value, 0)


# ----------------------------------------------------------------------
# metrics

def test_compare_identical_is_zero():
    m = make_cube(3)
    r = compare(m, m)
    assert r.mean_angular_error_deg == 0.0
    assert r.max_angular_error_deg == 0.0
    assert r.mean_vertex_distance == 0.0
    assert r.relative_volume_change == 0.0


def test_compare_rotated_plane_is_90():
    m = make_plane(4)
    R = rotation_matrix([1, 0, 0], math.pi / 2)
    r = compare(m, TriMesh(m.vertices @ R.T, m.faces))
    assert abs(r.mean_angular_error_deg - 90.0) < 1e-9


def test_compare_connectivity_mismatch():
    a = make_plane(3)
    b = make_plane(4)
    with pytest.raises(ValueError):
        compare(a, b)


def test_compare_cloud_cardinality_mismatch():
    with pytest.raises(ValueError):
        compare(PointCloud(np.zeros((3, 3))), PointCloud(np.zeros((4, 3))))


def test_noisy_cube_regression_pin():
    truth = make_cube(10)
    noisy = add_noise(truth, 0.2, 42)
    r = compare(truth, noisy)
    assert abs(r.mean_angular_error_deg - 13.02) < 0.2


def test_report_serialization():
    m = make_cube(2)
    r = compare(m, m, warnings={"zero_weight_sums": 0})
    data = json.loads(r.to_json())
    assert data["feature_edge_count"] == 12
    assert data["warnings"] == {"zero_weight_sums": 0}
    row = r.to_csv_row()
    assert len(row.split(",")) == len(MetricsReport.CSV_FIELDS)
