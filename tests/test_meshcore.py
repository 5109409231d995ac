import math
import warnings

import numpy as np
import pytest

from denoisekit import (
    DegenerateFaceError,
    NeighborhoodSpec,
    NonManifoldError,
    ParseError,
    TriMesh,
    guidance_normals,
    load_mesh,
    make_cube,
    make_icosphere,
    make_plane,
    save_mesh,
)
from denoisekit.meshcore import unit_rows
from conftest import rotation_matrix

TRI_OBJ = """\
v 0 0 0
v 1 0 0
v 0 1 0
f 1 2 3
"""

CUBE_OBJ = """\
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
v 0 0 1
v 1 0 1
v 1 1 1
v 0 1 1
f 1 3 2
f 1 4 3
f 5 6 7
f 5 7 8
f 1 2 6
f 1 6 5
f 2 3 7
f 2 7 6
f 3 4 8
f 3 8 7
f 4 1 5
f 4 5 8
"""


# ----------------------------------------------------------------------
# loading

def test_load_single_triangle(tmp_path):
    p = tmp_path / "t.obj"
    p.write_text(TRI_OBJ)
    m = load_mesh(p)
    assert len(m.faces) == 1
    assert np.allclose(m.face_normals[0], [0, 0, 1])
    assert np.allclose(m.face_centroids[0], [1 / 3, 1 / 3, 0])
    assert abs(m.face_areas[0] - 0.5) < 1e-15


def test_load_short_face_errors(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nf 1 2\n")
    with pytest.raises(ParseError, match="line 3"):
        load_mesh(p)


def test_load_bad_coordinate_errors(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 zero 0\n")
    with pytest.raises(ParseError, match="line 1"):
        load_mesh(p)


def test_cube_average_edge_length(tmp_path):
    p = tmp_path / "cube.obj"
    p.write_text(CUBE_OBJ)
    m = load_mesh(p)
    assert len(m.edges) == 18
    expected = (12 * 1.0 + 6 * math.sqrt(2.0)) / 18.0
    assert abs(m.avg_edge_length - expected) < 1e-12


def test_quad_fan_triangulation(tmp_path):
    p = tmp_path / "quad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    m = load_mesh(p)
    assert len(m.faces) == 2
    assert m.faces.tolist() == [[0, 1, 2], [0, 2, 3]]


def test_negative_obj_indices(tmp_path):
    p = tmp_path / "neg.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
    m = load_mesh(p)
    assert m.faces.tolist() == [[0, 1, 2]]


def test_obj_index_zero_rejected(tmp_path):
    """OBJ indices are 1-based or negative: 0 is no vertex, even when a later
    ``v`` line would make it one counted back from the vertices read so far."""
    p = tmp_path / "zero.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\nv 1 1 0\n")
    with pytest.raises(ParseError, match="^line 4: bad face index$"):
        load_mesh(p)


PLY_HEADER = ("ply\nformat ascii 1.0\nelement vertex 4\nproperty float x\n"
              "property float y\nproperty float z\nelement face 2\n"
              "property list uchar int vertex_indices\nend_header\n")
PLY_ROWS = ["0 0 0", "1 0 0", "0 1 0", "1 1 0", "3 0 1 2", "3 1 3 2"]


def ply_text(rows):
    return PLY_HEADER + "".join(r + "\n" for r in rows)


def test_load_ply_polygon_and_extra_columns(tmp_path):
    """A quad is fan-triangulated; values past a row's count are ignored."""
    p = tmp_path / "q.ply"
    p.write_text(ply_text(PLY_ROWS[:4] + ["4 0 1 3 2", "3 1 3 2 255"]))
    assert load_mesh(p).faces.tolist() == [[0, 1, 3], [0, 3, 2], [1, 3, 2]]


@pytest.mark.parametrize("row, value, message", [
    (2, "0 1", "line 12: vertex row with fewer than 3 values"),
    (2, "0 y 0", "line 12: bad vertex coordinate"),
    (5, "3 1 3", "line 15: face with <3 vertices or fewer than its count"),
    (5, "2 1 3", "line 15: face with <3 vertices or fewer than its count"),
    (5, "3 1 3 x", "line 15: bad face index"),
    (5, "x 1 3 2", "line 15: bad face count"),
    (5, None, "PLY declares 4 vertices and 2 faces but has 5 rows"),
    (3, None, "PLY declares 4 vertices and 2 faces but has 5 rows"),
], ids=["short-vertex", "bad-coordinate", "short-face", "two-corners", "bad-index",
        "bad-count", "missing-face", "missing-vertex"])
def test_malformed_ply_rows(tmp_path, row, value, message):
    """A good 4-vertex, 2-face PLY with one row changed (or dropped) fails
    with a ParseError naming the line, or the counts when rows are missing."""
    rows = list(PLY_ROWS)
    if value is None:
        del rows[row]
    else:
        rows[row] = value
    p = tmp_path / "bad.ply"
    p.write_text(ply_text(rows))
    with pytest.raises(ParseError, match=f"^{message}$"):
        load_mesh(p)


def test_load_ascii_ply(tmp_path):
    p = tmp_path / "t.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
        "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    m = load_mesh(p)
    assert len(m.vertices) == 3 and len(m.faces) == 1


def test_binary_ply_rejected(tmp_path):
    p = tmp_path / "t.ply"
    p.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
    with pytest.raises(ParseError):
        load_mesh(p)


def test_degenerate_face_rejected():
    with pytest.raises(DegenerateFaceError):
        TriMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])


@pytest.mark.parametrize("build", [
    load_mesh,
    lambda p: TriMesh(make_cube(3).vertices * 0.0, make_cube(3).faces),
    lambda p: make_plane(3, 1e-200),
], ids=["coincident-obj", "cube-scale-0", "plane-scale-1e-200"])
def test_collapsed_faces_rejected(tmp_path, build):
    """Faces whose edges all have length 0, or whose areas underflow to 0,
    passed validation: the bound on the area was 0 as well."""
    p = tmp_path / "point.obj"
    p.write_text("v 1 2 3\nv 1 2 3\nv 1 2 3\nf 1 2 3\n")
    with pytest.raises(DegenerateFaceError, match="degenerate faces"):
        build(p)


def test_face_index_out_of_range():
    with pytest.raises(Exception):
        TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 5]])


# ----------------------------------------------------------------------
# saving

def test_roundtrip_triangle(tmp_path):
    m = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    p = tmp_path / "t.obj"
    save_mesh(m, p)
    m2 = load_mesh(p)
    assert np.array_equal(m.faces, m2.faces)
    assert np.max(np.abs(m.vertices - m2.vertices)) < 1e-8


def test_saved_bytes_pinned(tmp_path):
    """The exact text of 9 significant digits, including non-finite values,
    negative zero and the smallest subnormal."""
    v = [[math.nan, math.inf, -0.0], [5e-324, 0.1 + 0.2, 123456789.123456789],
         [-2.5e17, 1.0, 2.0]]
    p = tmp_path / "t.obj"
    with np.errstate(invalid="ignore"):
        save_mesh(TriMesh(v, [[0, 1, 2], [2, 1, 0]], validate=False), p)
    assert p.read_bytes() == (b"v nan inf -0\n"
                              b"v 4.94065646e-324 0.3 123456789\n"
                              b"v -2.5e+17 1 2\n"
                              b"f 1 2 3\nf 3 2 1\n")


def test_roundtrip_cube(tmp_path):
    m = make_cube(3)
    p = tmp_path / "c.obj"
    save_mesh(m, p)
    m2 = load_mesh(p)
    assert np.array_equal(m.faces, m2.faces)
    assert np.max(np.abs(m.vertices - m2.vertices)) < 1e-8


def test_save_empty_mesh(tmp_path):
    m = TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    p = tmp_path / "e.obj"
    save_mesh(m, p)
    assert p.read_text() == ""


# ----------------------------------------------------------------------
# neighborhoods

def test_interior_face_shared_edge_neighbors(plane5):
    # pick a face whose three edges are all interior
    spec = NeighborhoodSpec("shared_edge", include_self=False)
    counts = plane5.neighbor_graph(spec)[3]
    assert max(counts) == 3
    vspec = NeighborhoodSpec("shared_vertex", include_self=False)
    vcounts = plane5.neighbor_graph(vspec)[3]
    # faces fully away from the boundary see 12 vertex-ring neighbors
    deep = np.flatnonzero(vcounts == 12)
    assert len(deep)
    assert np.all(counts[deep] == 3)


def test_include_self_and_sorted(plane5):
    spec = NeighborhoodSpec("shared_vertex", include_self=True)
    for i in (0, 7, 15):
        nb = plane5.neighbor_lists(spec)[i]
        assert i in nb
        assert np.all(np.diff(nb) > 0)


def test_tiny_radius_neighborhood(plane5):
    spec = NeighborhoodSpec("radius", radius=1e-9, include_self=True)
    assert plane5.neighbor_lists(spec)[3].tolist() == [3]


def test_neighborhood_symmetry(plane5):
    for mode in ("shared_edge", "shared_vertex"):
        spec = NeighborhoodSpec(mode, include_self=False)
        lists = plane5.neighbor_lists(spec)
        for i, nb in enumerate(lists):
            for j in nb:
                assert i in lists[j]


def test_neighborhood_spec_validation():
    with pytest.raises(ValueError):
        NeighborhoodSpec("geodesic")
    with pytest.raises(ValueError):
        NeighborhoodSpec("radius")
    for radius in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="radius must be finite and > 0"):
            NeighborhoodSpec("radius", radius=radius)
    for mode, k in (("knn", None), ("knn", 0), ("shared_vertex", 8)):
        with pytest.raises(ValueError, match="k must be >= 1 in knn mode"):
            NeighborhoodSpec(mode, k=k)


def test_mesh_has_no_knn_graph(plane5, monkeypatch):
    """A knn spec reached the radius branch and ``_radius_pair_keys(None)``."""
    def no_radius(radius):
        raise AssertionError("radius graph built")
    monkeypatch.setattr(plane5, "_radius_pair_keys", no_radius)
    knn = NeighborhoodSpec("knn", k=4)
    with pytest.raises(ValueError, match="a mesh has no knn neighbourhood"):
        plane5.neighbor_graph(knn)
    with pytest.raises(ValueError, match="a mesh has no knn neighbourhood"):
        guidance_normals(plane5, knn, math.radians(60.0))


# ----------------------------------------------------------------------
# derived fields

def test_translation_keeps_normals(plane5):
    t = np.array([3.0, -2.0, 0.5])
    m2 = TriMesh(plane5.vertices + t, plane5.faces)
    assert np.max(np.abs(m2.face_normals - plane5.face_normals)) < 1e-12
    assert np.max(np.abs(m2.face_centroids - (plane5.face_centroids + t))) < 1e-12


def test_rotation_rotates_normals(cube2):
    R = rotation_matrix([1, 2, 3], 0.7)
    m2 = TriMesh(cube2.vertices @ R.T, cube2.faces)
    assert np.max(np.abs(m2.face_normals - cube2.face_normals @ R.T)) < 1e-9


def test_normals_unit(cube2):
    assert np.max(np.abs(np.linalg.norm(cube2.face_normals, axis=1) - 1.0)) < 1e-9


def test_unit_rows_rescales_rows_whose_squares_overflow():
    """A finite row whose squared norm overflows is measured scaled by its
    largest entry; it was replaced as a vanished row. Other rows keep their bits."""
    rows = np.array([[1e200, 1e200, 0.0], [0.3, -0.4, 1.2], [0.0, 0.0, 0.0]])
    fallback = np.array([[0.0, 0.0, 1.0]] * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, replaced = unit_rows(rows[:1], fallback[:1])
        assert replaced == 0
        assert np.allclose(got, [[math.sqrt(0.5), math.sqrt(0.5), 0.0]], rtol=1e-15, atol=0)
        mixed, replaced = unit_rows(rows, fallback)
    assert replaced == 1
    assert np.array_equal(mixed[0], got[0])
    assert np.array_equal(mixed[1:], unit_rows(rows[1:], fallback[1:])[0])


def test_recompute_deterministic(cube2):
    n1 = cube2.face_normals.copy()
    cube2.recompute_face_fields()
    assert np.array_equal(n1, cube2.face_normals)


# ----------------------------------------------------------------------
# curvature

def test_flat_grid_curvature_zero(plane5):
    k = plane5.vertex_mean_curvature()
    assert np.max(k) < 1e-9


def test_sphere_curvature_near_one():
    m = make_icosphere(2)
    k = m.vertex_mean_curvature()
    assert abs(k.mean() - 1.0) < 0.15


def test_cube_edge_curvature_exceeds_interior():
    m = make_cube(4)
    k = m.vertex_mean_curvature()
    on_boundary_planes = (np.isclose(m.vertices, 0) | np.isclose(m.vertices, 1)).sum(axis=1)
    interior = k[on_boundary_planes == 1]
    edge = k[on_boundary_planes >= 2]
    assert edge.min() > interior.max()


def test_nonmanifold_curvature_error():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]]
    faces = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
    m = TriMesh(verts, faces)
    with pytest.raises(NonManifoldError):
        m.vertex_mean_curvature()


# ----------------------------------------------------------------------
# features, volume

def test_cube_feature_edges(cube2):
    feats = cube2.dihedral_feature_edges(70.0)
    assert len(feats) == 12
    for threshold in (-1.0, 180.5, math.nan):  # NaN found no edge at all
        with pytest.raises(ValueError, match=r"feature threshold must be in \[0, 180\]"):
            cube2.dihedral_feature_edges(threshold)


def test_flat_grid_no_feature_edges(plane5):
    assert len(plane5.dihedral_feature_edges(70.0)) == 0
    interior = sum(1 for fs in plane5.edge_faces if len(fs) == 2)
    assert len(plane5.dihedral_feature_edges(0.0)) == interior


def test_volume_cube(cube2):
    assert abs(cube2.volume() - 1.0) < 1e-12
    mirrored = TriMesh(cube2.vertices * [-1, 1, 1], cube2.faces)
    assert abs(mirrored.volume() + 1.0) < 1e-12


def test_volume_sphere():
    v = make_icosphere(2).volume()
    assert abs(v - 4.0 * math.pi / 3.0) / (4.0 * math.pi / 3.0) < 0.05
