"""Point-set normal filters and the normal-driven point position update."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.spatial import cKDTree

from .kernels import Kernel
from .meshcore import parse_key_values, scatter_rows, vector_dots
from .pointcloud import PointCloud


def _gauss(x, sigma):
    return np.exp(-(x * x) / (sigma * sigma))


# method -> (argument x_ij: normal angle, |n_j - n_i| or that of guidance
# normals, None for digne_bilateral, which only moves points; range weight
# g(x, sigma); "auto" sigma_d of the spatial Gaussian: half the farthest
# neighbour's distance, the mean positive distance, or no spatial factor)
POINT_PRESET = {
    "li_bilateral": ("angle", _gauss, "half_radius"),
    "zheng_guided_pc": ("guidance", _gauss, "mean_distance"),
    "digne_bilateral": (None, None, None),
    "zheng_rolling": ("euclidean", _gauss, "mean_distance"),
    "yadav_vnvt": ("angle", lambda x, sigma: Kernel("box", sigma).weight(x), None),
}
POINT_METHODS = tuple(POINT_PRESET)


@dataclass(frozen=True)
class PointFilterSpec:
    method: str
    sigma: float | str = "auto"       # "auto" only for li_bilateral
    sigma_d: float | str = "auto"
    k: int | None = 12                # kNN size; or use radius
    radius: float | None = None
    iterations: int = 1

    def __post_init__(self):
        if self.method not in POINT_METHODS:
            raise ValueError(f"unknown method {self.method!r}; valid: {POINT_METHODS}")
        if self.k is None and self.radius is None:
            raise ValueError("set k or radius")
        if self.sigma == "auto" and self.method not in ("li_bilateral", "digne_bilateral"):
            raise ValueError("sigma='auto' is only defined for li_bilateral/digne_bilateral")
        if not isinstance(self.sigma, str) and not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")

    # ---- flat key=value serialization (same format as FilterSpec) ----
    def to_text(self) -> str:
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return "".join(f"{k}={'none' if v is None else v}\n" for k, v in values)

    @classmethod
    def from_text(cls, text: str) -> "PointFilterSpec":
        kv = parse_key_values(text)
        def num(v):
            return v if v == "auto" else float(v)
        k = kv.get("k", "none")
        r = kv.get("radius", "none")
        return cls(method=kv["method"],
                   sigma=num(kv.get("sigma", "auto")),
                   sigma_d=num(kv.get("sigma_d", "auto")),
                   k=None if k == "none" else int(k),
                   radius=None if r == "none" else float(r),
                   iterations=int(kv.get("iterations", 1)))


def filter_point_normals(cloud: PointCloud, spec: PointFilterSpec) -> np.ndarray:
    """Weighted normal averaging per the method's row of POINT_PRESET, double-buffered."""
    if cloud.normals is None:
        raise ValueError("cloud has no normals; estimate them first")
    argument, weight, spatial_rule = POINT_PRESET[spec.method]
    prev = cloud.normals.copy()
    if argument is None or not len(prev):
        return prev
    k = None if spec.radius is not None else min(spec.k, len(cloud) - 1)
    centers, neighbors, starts, counts = cloud.neighbor_graph(k=k, radius=spec.radius)
    d = np.linalg.norm(cloud.points[neighbors] - cloud.points[centers], axis=1)
    spatial = 1.0
    if spatial_rule is not None:
        sd = spec.sigma_d
        if sd == "auto" and spatial_rule == "half_radius":
            r = np.maximum.reduceat(d, starts)
            sd = np.where(r > 0, r, 1.0)[centers] / 2.0
        elif sd == "auto":
            n_pos = np.bincount(centers, weights=d > 0, minlength=len(prev))
            total = np.bincount(centers, weights=d, minlength=len(prev))
            sd = np.where(n_pos > 0, total / np.maximum(n_pos, 1), 1.0)[centers]
        spatial = _gauss(d, sd)

    # Li's auto sigma: std of the angular variation, from the initial normals
    sigma = spec.sigma
    if sigma == "auto":
        sigma = max(float(np.std(_angles(prev, neighbors, starts, counts))), 1e-6)

    for _ in range(spec.iterations):
        if argument == "angle":
            x = _angles(prev, neighbors, starts, counts)
        else:
            # single-normal guidance: the distance-weighted mean normal
            g = prev if argument == "euclidean" else \
                _weighted_mean(prev, spatial, centers, neighbors)
            x = np.linalg.norm(g[neighbors] - g[centers], axis=1)
        prev = _weighted_mean(prev, weight(x, sigma) * spatial, centers, neighbors)
    return prev


def _angles(normals, neighbors, starts, counts):
    """The angle between the normals of each pair. A point's dots are one
    matrix-vector product, batched over the points with as many neighbours,
    so they round as ``normals[row] @ normals[i]``: arccos near 1 would turn
    another rounding of a point's dot with itself into an angle of 1e-8."""
    dots = np.empty(len(neighbors))
    for size in np.unique(counts):
        rows = np.flatnonzero(counts == size)
        pairs = starts[rows, None] + np.arange(size)
        dots[pairs] = (normals[neighbors[pairs]] @ normals[rows, :, None])[:, :, 0]
    return np.arccos(np.clip(dots, -1.0, 1.0))


def _weighted_mean(normals, w, centers, neighbors):
    """Per point, the unit sum of its neighbours' normals under weights w;
    a point whose sum vanishes keeps its normal."""
    acc = scatter_rows(centers, w[:, None] * normals[neighbors], len(normals))
    nrm = np.sqrt(vector_dots(acc, acc))
    ok = nrm > 1e-12
    return np.where(ok[:, None], acc / np.where(ok, nrm, 1.0)[:, None], normals)


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
    equal-radii heuristic). Returns (new points, empty-neighborhood count).
    """
    n = np.asarray(filtered_normals, dtype=float)
    if spec is not None:
        iterations = spec.iterations
        if spec.radius is not None:
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
    sigma_d = radius / 3.0
    sigma = radius / 3.0
    pairs = cKDTree(pts).query_pairs(radius, output_type="ndarray")
    num = np.zeros(len(pts))
    denom = np.zeros(len(pts))
    # at least n pairs a block, so the bincounts do not outweigh the pairs
    block = max(_PAIR_BLOCK, len(pts))
    for lo in range(0, len(pairs), block):
        i, j = pairs[lo:lo + block].T
        rel = pts[j] - pts[i]
        near = _gauss(np.linalg.norm(rel, axis=1), sigma_d)
        for c, r in ((i, rel), (j, -rel)):  # each pair moves both its points
            h = np.einsum("ij,ij->i", r, n[c])
            w = near * _gauss(np.abs(h), sigma)
            denom += np.bincount(c, weights=w, minlength=len(pts))
            num += np.bincount(c, weights=w * h, minlength=len(pts))
    ok = denom > 1e-300
    new = np.where(ok[:, None], pts + (num / np.where(ok, denom, 1.0))[:, None] * n, pts)
    return new, int(np.count_nonzero(~ok))
