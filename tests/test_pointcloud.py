import tracemalloc

import numpy as np
import pytest
import scipy.sparse.csgraph
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_loops as ref
from denoisekit import (NeighborhoodSpec, PointCloud, add_noise, estimate_normals_pca,
                        load_xyz, make_cube, save_mesh, save_xyz)
from denoisekit import meshcore
from denoisekit.pointcloud import PointCloudError, RankDeficientNeighborhood
from conftest import ball, knn, rotation_matrix


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

def graph_row(cloud, i, spec):
    """Row i of the cloud's neighbour graph: the point and its neighbours."""
    _, neighbors, starts, counts = cloud.neighbor_graph(spec)
    return neighbors[starts[i]:starts[i] + counts[i]].tolist()


def test_knn_collinear_middle():
    c = PointCloud([[0, 0, 0], [1, 0, 0], [3, 0, 0]])
    assert graph_row(c, 1, knn(1)) == [0, 1]


def test_knn_grid_center():
    pts = [[x, y, 0] for y in range(3) for x in range(3)]
    c = PointCloud(pts)
    assert graph_row(c, 4, knn(4)) == [1, 3, 4, 5, 7]


def test_knn_duplicate_tie_by_index():
    c = PointCloud([[0, 0, 0], [5, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert graph_row(c, 3, knn(1)) == [0, 3]
    assert graph_row(c, 0, knn(2)) == [0, 2, 3]


def test_knn_k_validation():
    c = PointCloud([[0, 0, 0], [1, 0, 0]])
    with pytest.raises(ValueError):
        c.neighbor_graph(knn(0))
    with pytest.raises(ValueError, match=r"k must be in \[1, 1\], got 2"):
        c.neighbor_graph(knn(2))
    with pytest.raises(ValueError):
        c.neighbor_graph(NeighborhoodSpec("knn", radius=1.0, k=1))


def test_radius_neighbors():
    c = PointCloud([[0, 0, 0], [1, 0, 0], [3, 0, 0]])
    assert graph_row(c, 0, ball(1.5)) == [0, 1]
    assert graph_row(c, 2, ball(1.5)) == [2]


def test_neighbor_graph_layout_and_cache():
    c = PointCloud([[0, 0, 0], [1, 0, 0], [3, 0, 0]])
    centers, neighbors, starts, counts = c.neighbor_graph(ball(2.0))
    assert centers.tolist() == [0, 0, 1, 1, 1, 2, 2]
    assert neighbors.tolist() == [0, 1, 0, 1, 2, 1, 2]
    assert starts.tolist() == [0, 2, 5] and counts.tolist() == [2, 3, 2]
    assert c.neighbor_graph(ball(2.0))[1] is neighbors
    assert not neighbors.flags.writeable


@pytest.mark.parametrize("spec, message", [
    (NeighborhoodSpec("shared_vertex"), "knn or radius"),
    (NeighborhoodSpec("shared_edge"), "knn or radius"),
    (NeighborhoodSpec("knn", k=1, include_self=False), "includes the point itself"),
    (NeighborhoodSpec("radius", 2.0, include_self=False), "includes the point itself"),
    (knn(3), r"k must be in \[1, 2\], got 3"),
    (knn(4), r"k must be in \[1, 2\], got 4"),
])
def test_neighbor_graph_refuses_what_a_cloud_lacks(spec, message):
    """A face mode, a neighbourhood without the point, or k >= n raises,
    and nothing is cached under the spec."""
    c = PointCloud([[0, 0, 0], [1, 0, 0], [3, 0, 0]])
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            c.neighbor_graph(spec)


def test_neighbor_graph_cache_is_per_spec():
    """An equal spec returns the same arrays; a kNN and a radius graph of the
    same cloud are kept apart, each as a fresh cloud builds it."""
    pts = [[0, 0, 0], [1, 0, 0], [3, 0, 0], [3, 2, 0]]
    c = PointCloud(pts)
    graphs = {spec: c.neighbor_graph(spec) for spec in (knn(1), ball(1.0), knn(2), ball(2.0))}
    for spec, graph in graphs.items():
        again = c.neighbor_graph(NeighborhoodSpec(spec.mode, spec.radius, True, spec.k))
        assert all(a is b for a, b in zip(again, graph))
        fresh = PointCloud(pts).neighbor_graph(spec)
        assert all(np.array_equal(a, b) for a, b in zip(graph, fresh))
    assert graphs[knn(1)][1].tolist() == [0, 1, 0, 1, 1, 2, 2, 3]
    assert graphs[ball(1.0)][1].tolist() == [0, 1, 0, 1, 2, 3]


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


def test_pca_orients_every_component_in_one_walk(monkeypatch):
    """One depth-first walk of the spanning forest, not one per component,
    with the loop's bits."""
    pts = sphere_cloud(30).points
    cloud = PointCloud(np.vstack([pts, pts + [100, 0, 0], pts + [0, 100, 0]]))
    want = ref.estimate_normals_pca(cloud, 5)
    calls = []
    walk = scipy.sparse.csgraph.depth_first_order
    monkeypatch.setattr(scipy.sparse.csgraph, "depth_first_order",
                        lambda *a, **kw: calls.append(a) or walk(*a, **kw))
    assert np.array_equal(estimate_normals_pca(cloud, 5), want)
    assert len(calls) == 1


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


COORDINATES = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300]),
                        st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.lists(COORDINATES, min_size=6 * n,
                                                     max_size=6 * n)), st.booleans())
@example([], True)  # no points, an empty (0, 3) array of normals
@example([-0.0, 1e-300, 1e300, 0.0, -0.0, -1e300], True)
def test_save_xyz_writes_the_bytes_of_savetxt(tmp_path_factory, values, normals):
    """One formatted write gives the bytes of ``np.savetxt`` row by row, with
    and without normals (the normals as the cloud holds them, unit or zero)."""
    a = np.array(values, dtype=float).reshape(-1, 6)
    with np.errstate(over="ignore"):  # the extent and the norms of 1e300 overflow
        cloud = PointCloud(a[:, :3], a[:, 3:] if normals else None)
    got, want = (tmp_path_factory.getbasetemp() / name for name in ("got.xyz", "want.xyz"))
    save_xyz(cloud, got)
    np.savetxt(want, cloud.points if cloud.normals is None
               else np.hstack([cloud.points, cloud.normals]), fmt="%.9g")
    assert got.read_bytes() == want.read_bytes()


def test_save_xyz_memory_is_bounded(tmp_path):
    """50,000 points with normals: the stacked rows take 2.3 MiB, and the
    text and the Python floats of one block of rows little more. The whole
    file's text and floats at once held over 17 MiB."""
    rng = np.random.Generator(np.random.Philox(key=6))
    cloud = PointCloud(rng.normal(size=(50_000, 3)), rng.normal(size=(50_000, 3)))
    tracemalloc.start()
    try:
        save_xyz(cloud, tmp_path / "c.xyz")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_writers_give_the_same_bytes_in_blocks_of_3(tmp_path, monkeypatch):
    """Rows spanning several blocks give the bytes of ``np.savetxt``, block
    by block, for the OBJ's vertices and faces and the XYZ's rows."""
    mesh = add_noise(make_cube(3), 0.3, 42)
    rng = np.random.Generator(np.random.Philox(key=7))
    cloud = PointCloud(mesh.vertices, rng.normal(size=mesh.vertices.shape))
    want = tmp_path / "want"
    with open(want, "wb") as fh:
        np.savetxt(fh, mesh.vertices, fmt="v %.9g %.9g %.9g")
        np.savetxt(fh, mesh.faces + 1, fmt="f %d %d %d")
    np.savetxt(tmp_path / "want.xyz", np.hstack([cloud.points, cloud.normals]), fmt="%.9g")
    monkeypatch.setattr(meshcore, "_WRITE_BLOCK", 3)
    save_mesh(mesh, tmp_path / "got.obj")
    save_xyz(cloud, tmp_path / "got.xyz")
    assert (tmp_path / "got.obj").read_bytes() == want.read_bytes()
    assert (tmp_path / "got.xyz").read_bytes() == (tmp_path / "want.xyz").read_bytes()


def test_xyz_bad_columns(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("1 2 3 4\n")
    with pytest.raises(PointCloudError, match="line 1"):
        load_xyz(p)


def test_xyz_bad_number_names_line(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("0 0 0\n1 x 0\n")
    with pytest.raises(PointCloudError, match="^line 2: bad coordinate$"):
        load_xyz(p)


def test_xyz_mixed_normals(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("1 2 3\n1 2 3 0 0 1\n")
    with pytest.raises(PointCloudError):
        load_xyz(p)
