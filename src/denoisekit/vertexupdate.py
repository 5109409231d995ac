"""Stage 2 of two-stage denoising: move vertices to agree with filtered
face normals, plus the uniform-Laplacian baseline used for the shrinkage
comparison."""

from __future__ import annotations

import numpy as np

from .meshcore import TriMesh, graph_sum, index_graph


def update_vertices(mesh: TriMesh, filtered_normals, iterations: int,
                    step: float = 1.0) -> np.ndarray:
    """Iteratively project vertices toward edge-face orthogonality.

    Per iteration each vertex moves by the average, over its incident
    faces, of the filtered normal scaled by the point-to-face-plane offset.
    Centroids are taken from the previous buffer within an iteration.
    """
    if not (0.0 <= step <= 1.0):
        raise ValueError("step must be in [0, 1]")
    mesh.require_edge_manifold()
    n = np.asarray(filtered_normals, dtype=float)
    v = mesh.vertices.copy()
    faces = mesh.faces
    nf = len(faces)
    # each face's corner sum 0 + v0 + v1 + v2, one fixed product: only a -0.0
    # it turns +0.0 tells it from (v0 + v1) + v2, and that moves no offset
    corner_sum = graph_sum((None, faces.ravel(), 3 * np.arange(nf), np.full(nf, 3)), len(v))
    # corner-major (corner 0 of every face, then 1, then 2); take gathers
    # whole rows several times faster than v[vid]
    vid = faces.T.copy()
    corners = _, order, _, count = index_graph(vid.ravel(), len(v))
    scatter = graph_sum(corners, 3 * nf)
    n3 = np.tile(n, (3, 1))
    for _ in range(iterations):
        centroids = corner_sum(1.0, v) / 3.0
        offset = np.einsum("ij,ij->i", n3, (centroids - v.take(vid, axis=0)).reshape(-1, 3))
        disp = scatter(offset[order], n3)
        with np.errstate(invalid="ignore"):
            v = v + step * disp / np.maximum(count, 1)[:, None]
    return v


def orthogonality_residual(vertices, faces, normals) -> float:
    """Sum of squared normal-offsets of vertices from incident-face centroids."""
    v = np.asarray(vertices, dtype=float)
    n = np.asarray(normals, dtype=float)
    centroids = (v[faces[:, 0]] + v[faces[:, 1]] + v[faces[:, 2]]) / 3.0
    total = 0.0
    for corner in range(3):
        vid = faces[:, corner]
        offset = np.einsum("ij,ij->i", n, centroids - v[vid])
        total += float(np.sum(offset * offset))
    return total


def laplacian_smooth(mesh: TriMesh, iterations: int, lam: float) -> np.ndarray:
    """Uniform-Laplacian (umbrella) smoothing: p += lam * (ring mean - p).

    A vertex with an empty ring stays put.
    """
    if not (0.0 <= lam < 1.0):
        raise ValueError("lambda must be in [0, 1)")
    v = mesh.vertices.copy()
    graph = _, _, _, size = mesh.vertex_graph
    ring_sum, has_ring = graph_sum(graph, len(v)), (size > 0)[:, None]
    for _ in range(iterations):
        mean = ring_sum(1.0, v) / np.maximum(size, 1)[:, None]
        v = np.where(has_ring, v + lam * (mean - v), v)
    return v
