import numpy as np
import pytest

from denoisekit import PointCloud, estimate_normals_pca, load_xyz, save_xyz
from denoisekit.pointcloud import PointCloudError, RankDeficientNeighborhood
from conftest import rotation_matrix


def sphere_cloud(n=300, seed=3):
    rng = np.random.Generator(np.random.Philox(key=seed))
    p = rng.normal(size=(n, 3))
    p /= np.linalg.norm(p, axis=1)[:, None]
    return PointCloud(p)


# ----------------------------------------------------------------------
# container

def test_normals_cardinality_mismatch():
    with pytest.raises(PointCloudError):
        PointCloud([[0, 0, 0], [1, 0, 0]], [[0, 0, 1]])


@pytest.mark.parametrize("points, normals", [
    ([[0, 0, 0], [1, np.nan, 0]], None),
    ([[0, 0, 0], [np.inf, 0, 0]], None),
    ([[0, 0, 0], [1, 0, 0]], [[0, 0, 1], [0, np.nan, 1]]),
])
def test_non_finite_input_rejected(points, normals):
    with pytest.raises(PointCloudError, match="non-finite"):
        PointCloud(points, normals)


def test_normals_renormalized():
    c = PointCloud([[0, 0, 0]], [[0, 0, 2.0]])
    assert np.allclose(c.normals[0], [0, 0, 1])


def test_bbox_diagonal():
    c = PointCloud([[0, 0, 0], [1, 1, 1]])
    assert abs(c.bbox_diagonal - np.sqrt(3.0)) < 1e-12


# ----------------------------------------------------------------------
# queries

def graph_row(cloud, i, **size):
    """Row i of the cloud's neighbour graph: the point and its neighbours."""
    _, neighbors, starts, counts = cloud.neighbor_graph(**size)
    return neighbors[starts[i]:starts[i] + counts[i]].tolist()


def test_knn_collinear_middle():
    c = PointCloud([[0, 0, 0], [1, 0, 0], [3, 0, 0]])
    assert graph_row(c, 1, k=1) == [0, 1]


def test_knn_grid_center():
    pts = [[x, y, 0] for y in range(3) for x in range(3)]
    c = PointCloud(pts)
    assert graph_row(c, 4, k=4) == [1, 3, 4, 5, 7]


def test_knn_duplicate_tie_by_index():
    c = PointCloud([[0, 0, 0], [5, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert graph_row(c, 3, k=1) == [0, 3]
    assert graph_row(c, 0, k=2) == [0, 2, 3]


def test_knn_k_validation():
    c = PointCloud([[0, 0, 0], [1, 0, 0]])
    with pytest.raises(ValueError):
        c.neighbor_graph(k=0)
    with pytest.raises(ValueError):
        c.neighbor_graph(k=2)
    with pytest.raises(ValueError):
        c.neighbor_graph(k=1, radius=1.0)


def test_radius_neighbors():
    c = PointCloud([[0, 0, 0], [1, 0, 0], [3, 0, 0]])
    assert graph_row(c, 0, radius=1.5) == [0, 1]
    assert graph_row(c, 2, radius=1.5) == [2]


def test_neighbor_graph_layout_and_cache():
    c = PointCloud([[0, 0, 0], [1, 0, 0], [3, 0, 0]])
    centers, neighbors, starts, counts = c.neighbor_graph(radius=2.0)
    assert centers.tolist() == [0, 0, 1, 1, 1, 2, 2]
    assert neighbors.tolist() == [0, 1, 0, 1, 2, 1, 2]
    assert starts.tolist() == [0, 2, 5] and counts.tolist() == [2, 3, 2]
    assert c.neighbor_graph(radius=2.0)[1] is neighbors
    assert not neighbors.flags.writeable


# ----------------------------------------------------------------------
# PCA normals

def test_pca_plane_oriented_up():
    rng = np.random.Generator(np.random.Philox(key=1))
    pts = np.column_stack([rng.uniform(0, 2, 80), rng.uniform(0, 2, 80),
                           np.zeros(80)])
    n = estimate_normals_pca(PointCloud(pts), k=6)
    assert np.max(np.abs(n - [0, 0, 1])) < 1e-9


def test_pca_sphere_radial():
    c = sphere_cloud(300)
    n = estimate_normals_pca(c, k=10)
    radial = c.points / np.linalg.norm(c.points, axis=1)[:, None]
    ang = np.degrees(np.arccos(np.clip(np.einsum("ij,ij->i", n, radial), -1, 1)))
    assert ang.mean() < 5.0
    # orientation is globally consistent (outward, since seeded at max z)
    assert np.all(np.einsum("ij,ij->i", n, radial) > 0)


def test_pca_two_clusters():
    rng = np.random.Generator(np.random.Philox(key=2))
    a = np.column_stack([rng.uniform(0, 1, 40), rng.uniform(0, 1, 40), np.zeros(40)])
    b = a + [100.0, 0.0, 0.5]
    n = estimate_normals_pca(PointCloud(np.vstack([a, b])), k=5)
    assert np.max(np.abs(np.abs(n[:, 2]) - 1.0)) < 1e-9
    assert len(set(np.sign(n[:40, 2]))) == 1
    assert len(set(np.sign(n[40:, 2]))) == 1


def test_pca_orient_to_reference():
    c = sphere_cloud(100)
    radial = c.points / np.linalg.norm(c.points, axis=1)[:, None]
    n = estimate_normals_pca(c, k=8, orient_to=radial)
    assert np.all(np.einsum("ij,ij->i", n, radial) > 0)


def test_pca_rotation_equivariance():
    c = sphere_cloud(150)
    R = rotation_matrix([0.3, -1.0, 0.2], 1.1)
    n1 = estimate_normals_pca(c, k=8)
    n2 = estimate_normals_pca(PointCloud(c.points @ R.T), k=8)
    dots = np.einsum("ij,ij->i", n1 @ R.T, n2)
    sign = np.sign(dots[0])
    assert np.max(np.arccos(np.clip(sign * dots, -1, 1))) < 1e-6


def test_pca_rank_deficient_error():
    pts = np.zeros((6, 3))
    with pytest.raises(RankDeficientNeighborhood):
        estimate_normals_pca(PointCloud(pts), k=4)


def test_pca_k_validation():
    with pytest.raises(ValueError):
        estimate_normals_pca(sphere_cloud(20), k=2)


# ----------------------------------------------------------------------
# IO

def test_xyz_roundtrip_points_only(tmp_path):
    c = PointCloud([[0.1, 0.2, 0.3], [1, 2, 3]])
    p = tmp_path / "c.xyz"
    save_xyz(c, p)
    c2 = load_xyz(p)
    assert np.max(np.abs(c.points - c2.points)) < 1e-8
    assert c2.normals is None


def test_xyz_roundtrip_with_normals(tmp_path):
    c = PointCloud([[0, 0, 0], [1, 0, 0]], [[0, 0, 1], [1, 0, 0]])
    p = tmp_path / "c.xyz"
    save_xyz(c, p)
    c2 = load_xyz(p)
    assert np.max(np.abs(c.normals - c2.normals)) < 1e-8


def test_xyz_bad_columns(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("1 2 3 4\n")
    with pytest.raises(PointCloudError, match="line 1"):
        load_xyz(p)


def test_xyz_mixed_normals(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("1 2 3\n1 2 3 0 0 1\n")
    with pytest.raises(PointCloudError):
        load_xyz(p)
