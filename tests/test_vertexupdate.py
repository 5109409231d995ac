import numpy as np
import pytest

from denoisekit import (
    NonManifoldError,
    TriMesh,
    add_noise,
    laplacian_smooth,
    make_cube,
    make_icosphere,
    make_plane,
    orthogonality_residual,
    update_vertices,
)


def test_flat_grid_own_normals_no_motion(plane5):
    v = update_vertices(plane5, plane5.face_normals, iterations=5, step=1.0)
    assert np.max(np.abs(v - plane5.vertices)) < 1e-12


def test_step_zero_identity():
    noisy = add_noise(make_cube(3), 0.3, 1)
    v = update_vertices(noisy, noisy.face_normals, iterations=3, step=0.0)
    assert np.array_equal(v, noisy.vertices)


def test_step_range_validation(plane5):
    with pytest.raises(ValueError):
        update_vertices(plane5, plane5.face_normals, 1, step=1.5)
    with pytest.raises(ValueError):
        update_vertices(plane5, plane5.face_normals, 1, step=-0.1)


def test_normals_of_the_wrong_shape_or_not_finite_are_refused(plane5):
    """All-NaN normals used to give all-NaN vertices, and a (3, 3) field failed
    inside numpy's broadcasting."""
    n = plane5.face_normals
    with pytest.raises(ValueError, match=r"filtered normals must be \(32, 3\), not \(3, 3\)"):
        update_vertices(plane5, n[:3], 1)
    with pytest.raises(ValueError, match="filtered normal 0 is not finite"):
        update_vertices(plane5, np.full_like(n, np.nan), 1)


def test_nonmanifold_rejected():
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]]
    faces = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
    m = TriMesh(verts, faces)
    with pytest.raises(NonManifoldError):
        update_vertices(m, m.face_normals, 1)


def test_true_normal_recovery_regression_pin():
    # noisy cube driven by the exact normals: only the normal-aligned noise
    # component is recoverable (interior side vertices move along one axis),
    # so the reduction plateaus well below full recovery; pinned value
    truth = make_cube(10)
    noisy = add_noise(truth, 0.2, 42)
    v = update_vertices(noisy, truth.face_normals, iterations=30, step=1.0)
    d0 = np.linalg.norm(noisy.vertices - truth.vertices, axis=1).mean()
    d1 = np.linalg.norm(v - truth.vertices, axis=1).mean()
    reduction = 1.0 - d1 / d0
    assert reduction >= 0.20
    assert abs(reduction - 0.2426) < 0.02


def test_orthogonality_residual_decreases():
    truth = make_cube(6)
    noisy = add_noise(truth, 0.2, 7)
    before = orthogonality_residual(noisy.vertices, noisy.faces, truth.face_normals)
    v = update_vertices(noisy, truth.face_normals, iterations=10, step=1.0)
    after = orthogonality_residual(v, noisy.faces, truth.face_normals)
    assert after < before


def test_laplacian_lambda_zero_identity(plane5):
    v = laplacian_smooth(plane5, 3, 0.0)
    assert np.array_equal(v, plane5.vertices)


def test_laplacian_lambda_validation(plane5):
    with pytest.raises(ValueError):
        laplacian_smooth(plane5, 1, 1.0)
    with pytest.raises(ValueError):
        laplacian_smooth(plane5, 1, -0.2)


def test_laplacian_interior_of_regular_grid_fixed(plane5):
    # one pass: boundary rows move, symmetric interior rings average to self
    v = laplacian_smooth(plane5, 1, 0.5)
    interior = np.flatnonzero(plane5.vertex_graph[3] == 6)
    assert len(interior)
    assert np.max(np.abs(v[interior] - plane5.vertices[interior])) < 1e-12


def test_laplacian_shrinks_sphere():
    m = make_icosphere(2)
    vol = m.volume()
    verts = m.vertices
    for _ in range(3):
        verts = laplacian_smooth(TriMesh(verts, m.faces, validate=False), 1, 0.5)
        new_vol = TriMesh(verts, m.faces, validate=False).volume()
        assert new_vol < vol
        vol = new_vol
