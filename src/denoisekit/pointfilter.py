"""Point-set normal filters (the "points" rows of ``meshfilter.PRESET``) and
the normal-driven point position update."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.spatial import cKDTree

from .kernels import Kernel
from .meshcore import (check_positive, mean_positive_distance, pair_angles, parse_key_values,
                       text_value, weighted_unit_mean)
from .meshfilter import POINT_METHODS, PRESET, pair_argument, smooth_normals
from .pointcloud import PointCloud


def _gauss(x, sigma):
    return np.exp(-(x * x) / (sigma * sigma))


@dataclass(frozen=True)
class PointFilterSpec:
    method: str
    sigma: float | str = "auto"       # "auto" only where the method's row allows it
    sigma_d: float | str = "auto"
    k: int | None = 12                # kNN size; or use radius
    radius: float | None = None
    iterations: int = 1

    def __post_init__(self):
        if self.method not in POINT_METHODS:
            raise ValueError(f"unknown method {self.method!r}; valid: {POINT_METHODS}")
        if self.k is None and self.radius is None:
            raise ValueError("set k or radius")
        if self.sigma == "auto" and not PRESET[self.method].auto_sigma:
            raise ValueError(f"sigma='auto' is not defined for {self.method}")
        for name in ("sigma", "sigma_d", "radius"):
            check_positive(name, getattr(self, name))
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    # ---- flat key=value serialization (same format as FilterSpec) ----
    def to_text(self) -> str:
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return "".join(f"{k}={'none' if v is None else v}\n" for k, v in values)

    @classmethod
    def from_text(cls, text: str) -> "PointFilterSpec":
        kv = parse_key_values(text, [f.name for f in fields(cls)])
        kinds = {"method": str, "k": int, "iterations": int}
        return cls(**{key: text_value(v, kinds.get(key, float)) for key, v in kv.items()})


def filter_point_normals(cloud: PointCloud, spec: PointFilterSpec) -> np.ndarray:
    """The method's row of ``PRESET`` run by ``smooth_normals`` on the kNN or
    radius graph, each point in its own neighbourhood. With sigma="auto"
    (Li's filter), sigma is the standard deviation of the angles of all pairs
    of the graph on the input normals, each point's zero angle with itself
    included."""
    if cloud.normals is None:
        raise ValueError("cloud has no normals; estimate them first")
    row = PRESET[spec.method]
    prev = cloud.normals.copy()
    if row.flavour is None or not len(prev):
        return prev
    k = None if spec.radius is not None else min(spec.k, len(cloud) - 1)
    graph = centers, neighbors, starts, counts = cloud.neighbor_graph(k=k, radius=spec.radius)
    d = np.linalg.norm(cloud.points[neighbors] - cloud.points[centers], axis=1)
    spatial = 1.0
    if row.spatial is not None:
        sd = spec.sigma_d
        if sd == "auto" and row.spatial == "half_radius":
            r = np.maximum.reduceat(d, starts)
            sd = np.where(r > 0, r, 1.0)[centers] / 2.0
        elif sd == "auto":
            sd = mean_positive_distance(d, centers, len(prev))
        spatial = _gauss(d, sd)
    sigma = spec.sigma
    if sigma == "auto":
        sigma = max(float(np.std(pair_angles(prev, neighbors, starts, counts))), 1e-6)
    weight = (lambda x: _gauss(x, sigma)) if row.kind == "gaussian" else \
        Kernel(row.kind, sigma, box_floor=row.floor).weight
    # single-normal guidance: the distance-weighted mean normal
    argument = pair_argument(row.argument, graph,
                             lambda n: weighted_unit_mean(n, spatial, centers, neighbors)[0])
    return smooth_normals(prev, spec.iterations, graph, argument, weight, spatial)[0]


# Pairs per block of the position update (at least): 96 KiB per float
# temporary of a block, so a large radius does not multiply the memory.
_PAIR_BLOCK = 1 << 12


def default_radius(cloud: PointCloud) -> float:
    """Neighborhood-radius heuristic scaled by bounding-box size and density."""
    return cloud.bbox_diagonal * math.sqrt(20.0 / max(len(cloud), 1))


def update_point_positions(cloud: PointCloud, filtered_normals,
                           spec: PointFilterSpec | None = None,
                           radius: float | None = None,
                           iterations: int = 1) -> tuple[np.ndarray, int]:
    """Move each point along its filtered normal toward the local surface.

    The offset is the weighted mean of the plane-distances of neighbors,
    with a Gaussian spatial weight (sigma_d = r/3) and a Gaussian weight on
    the plane distance itself (sigma = r/3 by default, matching the
    equal-radii heuristic). ``iterations`` steps are taken; a spec only
    supplies its radius. Returns (new points, empty-neighborhood count).
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    n = np.asarray(filtered_normals, dtype=float)
    if spec is not None and spec.radius is not None:
        radius = spec.radius
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
