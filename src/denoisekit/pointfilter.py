"""Point-set normal filters (the "points" rows of ``meshfilter.PRESET``) and
the normal-driven point position update."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .kernels import Kernel
from .meshcore import graph_sum, tree_pairs, unit_rows
from .meshfilter import PRESET, FilterSpec, pair_argument, smooth_normals, spatial_weights
from .pointcloud import PointCloud


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
    if row.flavour is None or len(prev) < 2:  # a lone point's only neighbour is itself
        return prev
    nb = spec.neighborhood
    graph = cloud.neighbor_graph(replace(nb, k=min(nb.k, len(cloud) - 1)) if nb.k else nb)
    spatial = spatial_weights(spec, graph, cloud.points)
    # single-normal guidance: the distance-weighted mean normal
    total = graph_sum(graph, len(prev))
    slot, i, j = graph.slots
    x = pair_argument(spec.argument, i, j, lambda n: unit_rows(total(spatial, n), n)[0])
    kernel = spec.range_kernel
    if kernel == "auto":  # Li's rule on the row's argument, the angle
        kernel = Kernel(row.kind, max(float(np.std(x(prev)[slot])), 1e-6), box_floor=row.floor)
    return smooth_normals(prev, spec.iterations, graph, (x, slot), kernel.weight, spatial)[0]


# Pairs per block of the position update: 128 KiB per float temporary of a
# block, so a large radius does not multiply the memory.
_PAIR_BLOCK = 1 << 14


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
    the plane distance itself (sigma = r/3 too, the equal-radii
    heuristic). ``iterations`` steps are taken; a spec only
    supplies the radius of a radius neighbourhood. Returns (new points,
    empty-neighborhood count), the count summed over the iterations: a point
    that stays for want of a neighbour or of weight counts once per iteration.
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
    """One iteration over the pairs whose ``pair_distances`` is at most ``radius``, as in
    the radius graphs, in blocks of 1-D columns, each pair end weighed by exp(-(d² + h²)/σ²):
    the new points, and how many stay for want of a neighbour or of weight. The
    pairs are freed on return, before the next iteration queries its own."""
    sigma = radius / 3.0  # of the spatial and the plane-distance Gaussian alike
    pairs = tree_pairs(pts, radius)  # weighed 0 where numpy puts them beyond the radius
    pos, (nx, ny, nz) = pts.T.copy(), n.T.copy()
    num, denom = np.zeros((2, len(pts)))
    for lo in range(0, len(pairs), _PAIR_BLOCK):
        i, j = pairs[lo:lo + _PAIR_BLOCK].T
        dx, dy, dz = (col.take(j) - col.take(i) for col in pos)
        d2 = dx * dx + dy * dy + dz * dz
        far = np.sqrt(d2) > radius
        for c, sign in ((i, 1.0), (j, -1.0)):  # each pair moves both its points
            h = dx * nx.take(c) + dy * ny.take(c) + dz * nz.take(c)
            w = np.exp(-(d2 + h * h) / (sigma * sigma))
            w[far] = 0.0
            denom += np.bincount(c, weights=w, minlength=len(pts))
            num += sign * np.bincount(c, weights=w * h, minlength=len(pts))
    ok = denom > 1e-300
    new = np.where(ok[:, None], pts + (num / np.where(ok, denom, 1.0))[:, None] * n, pts)
    return new, int(np.count_nonzero(~ok))
