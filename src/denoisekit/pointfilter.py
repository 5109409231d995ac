"""Point-set normal filters (the "points" rows of ``meshfilter.PRESET``) and
the normal-driven point position update."""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from .kernels import Kernel
from .meshcore import graph_sum, mean_positive_distance, pair_angles, pair_distances, unit_rows
from .meshfilter import PRESET, FilterSpec, pair_argument, smooth_normals
from .pointcloud import PointCloud


def _gauss(x, sigma):
    """The spatial and plane-distance weight exp(-x²/σ²), of peak 1: not a kernel's g."""
    return np.exp(-(x * x) / (sigma * sigma))


def filter_point_normals(cloud: PointCloud, spec: FilterSpec) -> np.ndarray:
    """The method's row of ``PRESET`` run by ``smooth_normals`` on the kNN or
    radius graph, each point in its own neighbourhood. With the "auto" range
    kernel (Li's filter), sigma is the standard deviation of the angles of all
    pairs of the graph on the input normals, each point's zero angle with
    itself included."""
    row = PRESET[spec.method]
    if row.domain != "points":
        raise ValueError(f"{spec.method} is a mesh filter: use filter_normals")
    if cloud.normals is None:
        raise ValueError("cloud has no normals; estimate them first")
    prev = cloud.normals.copy()
    if row.flavour is None or not len(prev):
        return prev
    nb, knn = spec.neighborhood, spec.neighborhood.mode == "knn"
    graph = centers, neighbors, starts, counts = cloud.neighbor_graph(
        k=min(nb.k, len(cloud) - 1) if knn else None, radius=None if knn else nb.radius)
    d = pair_distances(cloud.points, neighbors, centers)
    spatial = 1.0
    if row.spatial is not None:
        sd = spec.spatial_sigma
        if sd == "auto" and row.spatial == "half_radius":
            r = np.maximum.reduceat(d, starts)
            sd = np.where(r > 0, r, 1.0)[centers] / 2.0
        elif sd == "auto":
            sd = mean_positive_distance(d, centers, len(prev))
        spatial = _gauss(d, sd)
    kernel = spec.range_kernel
    if kernel == "auto":
        sigma = max(float(np.std(pair_angles(prev, neighbors, starts, counts))), 1e-6)
        kernel = Kernel(row.kind, sigma, box_floor=row.floor)
    # single-normal guidance: the distance-weighted mean normal
    total = graph_sum(graph, len(prev))
    argument = pair_argument(spec.argument, graph,
                             lambda n: unit_rows(total(spatial, n), n)[0])
    return smooth_normals(prev, spec.iterations, graph, argument, kernel.weight, spatial)[0]


# Pairs per block of the position update (at least): 96 KiB per float
# temporary of a block, so a large radius does not multiply the memory.
_PAIR_BLOCK = 1 << 12


def default_radius(cloud: PointCloud) -> float:
    """Neighborhood-radius heuristic scaled by bounding-box size and density."""
    return cloud.bbox_diagonal * math.sqrt(20.0 / max(len(cloud), 1))


def update_point_positions(cloud: PointCloud, filtered_normals,
                           spec: FilterSpec | None = None,
                           radius: float | None = None,
                           iterations: int = 1) -> tuple[np.ndarray, int]:
    """Move each point along its filtered normal toward the local surface.

    The offset is the weighted mean of the plane-distances of neighbors,
    with a Gaussian spatial weight (sigma_d = r/3) and a Gaussian weight on
    the plane distance itself (sigma = r/3 by default, matching the
    equal-radii heuristic). ``iterations`` steps are taken; a spec only
    supplies the radius of a radius neighbourhood. Returns (new points,
    empty-neighborhood count).
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    n = np.asarray(filtered_normals, dtype=float)
    if spec is not None and spec.neighborhood.mode == "radius":
        radius = spec.neighborhood.radius
    if radius is None:
        radius = default_radius(cloud)
    pts = cloud.points.copy()
    warnings = 0
    for _ in range(iterations):
        pts, stay = _position_step(pts, n, radius)
        warnings += stay
    return pts, warnings


def _position_step(pts, n, radius):
    """One iteration over the point pairs within ``radius``, in blocks: the
    new points, and how many stay for want of a neighbour or of weight. The
    pairs are freed on return, before the next iteration queries its own."""
    sigma = radius / 3.0  # of the spatial and the plane-distance Gaussian alike
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    num = np.zeros(len(pts))
    denom = np.zeros(len(pts))
    # at least n pairs a block, so the bincounts do not outweigh the pairs
    block = max(_PAIR_BLOCK, len(pts))
    for lo in range(0, len(pairs), block):
        i, j = pairs[lo:lo + block].T
        rel = pts[j] - pts[i]
        near = _gauss(np.linalg.norm(rel, axis=1), sigma)
        for c, r in ((i, rel), (j, -rel)):  # each pair moves both its points
            h = np.einsum("ij,ij->i", r, n[c])
            w = near * _gauss(np.abs(h), sigma)
            denom += np.bincount(c, weights=w, minlength=len(pts))
            num += np.bincount(c, weights=w * h, minlength=len(pts))
    ok = denom > 1e-300
    new = np.where(ok[:, None], pts + (num / np.where(ok, denom, 1.0))[:, None] * n, pts)
    return new, int(np.count_nonzero(~ok))
