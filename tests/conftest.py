import multiprocessing

import numpy as np
import pytest

from denoisekit import FilterSpec, NeighborhoodSpec, TriMesh, make_cube, make_plane


def knn(k):
    """A point and its k nearest points."""
    return NeighborhoodSpec("knn", k=k)


def ball(radius):
    """The faces or points within a radius, each in its own neighbourhood."""
    return NeighborhoodSpec("radius", radius)


def point_spec(method, sigma, k=12, radius=None, **kw):
    """The preset of a point row on its k nearest neighbours, or within a radius."""
    nb = knn(k) if radius is None else ball(radius)
    return FilterSpec.preset(method, sigma=sigma, neighborhood=nb, **kw)


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail a test that leaves a child process running, as a leaked file
    handle fails it; the benchmark refuses such a run."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join(timeout=10)
    assert not left, f"child processes left running: {left}"


@pytest.fixture
def bent_pair():
    """Two faces sharing an edge, with normals (0,0,1) and (1,0,0)."""
    verts = np.array([
        [0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [-1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    faces = np.array([[0, 1, 2], [0, 1, 3]])
    mesh = TriMesh(verts, faces)
    assert np.allclose(mesh.face_normals[0], [0, 0, 1])
    assert np.allclose(mesh.face_normals[1], [1, 0, 0])
    return mesh


@pytest.fixture
def plane5():
    return make_plane(5)


@pytest.fixture
def cube2():
    return make_cube(2)


def rotation_matrix(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    x, y, z = axis
    c, s = np.cos(angle), np.sin(angle)
    C = 1.0 - c
    return np.array([
        [c + x * x * C, x * y * C - z * s, x * z * C + y * s],
        [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
        [z * x * C - y * s, z * y * C + x * s, c + z * z * C],
    ])


def max_angle(a, b):
    """Largest angle (radians) between corresponding rows of two unit fields."""
    dots = np.clip(np.einsum("ij,ij->i", np.asarray(a), np.asarray(b)), -1.0, 1.0)
    return float(np.arccos(dots).max()) if len(dots) else 0.0
