"""Stage 2 of two-stage denoising: move vertices to agree with filtered
face normals, plus the uniform-Laplacian baseline used for the shrinkage
comparison."""

from __future__ import annotations

import numpy as np

from .meshcore import TriMesh, checked_normals, graph_sum, index_graph


def update_vertices(mesh: TriMesh, filtered_normals, iterations: int,
                    step: float = 1.0) -> np.ndarray:
    """Iteratively project vertices toward edge-face orthogonality.

    Per iteration each vertex moves by the average, over its incident faces, of the
    filtered normal scaled by the point-to-face-plane offset. Centroids are taken from
    the previous buffer within an iteration. The normals must be (F, 3) and finite.
    """
    if not (0.0 <= step <= 1.0):
        raise ValueError("step must be in [0, 1]")
    mesh.require_edge_manifold()
    n = checked_normals(filtered_normals, len(mesh.faces), "filtered")
    v = mesh.vertices.copy()
    # corner-major (corner 0 of every face, then 1, then 2); take gathers
    # whole rows several times faster than v[vid]
    vid = mesh.faces.T.copy()
    corners = _, order, _, count = index_graph(vid.ravel(), len(v))
    scatter = graph_sum(corners, vid.size)
    n3 = np.tile(n, (3, 1))
    for _ in range(iterations):
        disp = scatter(_plane_offsets(v, vid, n3)[order], n3)
        with np.errstate(invalid="ignore"):
            v = v + step * disp / np.maximum(count, 1)[:, None]
    return v


def _plane_offsets(v, vid, n3):
    """Per corner of the (3, F) corner indices ``vid``: ``n . (c - v)`` with its face's normal
    (a row of ``n3``) and centroid c, the gathered corners' ((v0 + v1) + v2) / 3."""
    corners = v.take(vid, axis=0)
    return np.einsum("ij,ij->i", n3, (corners.sum(axis=0) / 3.0 - corners).reshape(-1, 3))


def orthogonality_residual(vertices, faces, normals) -> float:
    """Sum of squared normal-offsets of vertices from incident-face centroids."""
    n3 = np.tile(np.asarray(normals, dtype=float), (3, 1))
    offset = _plane_offsets(np.asarray(vertices, dtype=float), np.asarray(faces).T, n3)
    return float(np.sum(offset * offset))


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
