"""Two-stage denoising drivers tying normal filtering to vertex updates."""

from __future__ import annotations

import numpy as np

from .meshcore import TriMesh
from .meshfilter import FilterSpec, filter_normals
from .pointcloud import PointCloud, estimate_normals_pca
from .pointfilter import filter_point_normals, update_point_positions
from .vertexupdate import update_vertices


def denoise_mesh(mesh: TriMesh, spec: FilterSpec, vertex_iterations: int = 30,
                 step: float = 1.0):
    """Filter face normals, then move vertices to match them.

    Returns (denoised mesh, filtered NormalField).
    """
    if vertex_iterations < 0:
        raise ValueError(f"vertex_iterations must be >= 0, got {vertex_iterations}")
    field = filter_normals(mesh, spec)
    if vertex_iterations > 0:
        new_vertices = update_vertices(mesh, field.normals, vertex_iterations, step)
    else:
        new_vertices = mesh.vertices.copy()
    out = TriMesh(new_vertices, mesh.faces.copy(), validate=False)
    return out, field


def denoise_cloud(cloud: PointCloud, spec: FilterSpec,
                  position_iterations: int = 1, estimate_k: int = 12):
    """Filter point normals (estimating them first if absent), then update
    point positions along the filtered normals."""
    if cloud.normals is None:
        cloud = cloud.with_normals(estimate_normals_pca(cloud, estimate_k))
    normals = filter_point_normals(cloud, spec)
    pts, warnings = update_point_positions(cloud, normals, spec=spec,
                                           iterations=position_iterations)
    return PointCloud(pts, normals), warnings
