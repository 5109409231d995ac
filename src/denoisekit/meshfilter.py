"""Normal filtering as one robust M-smoother: each pass replaces a normal by
the unit mean of its neighbours' normals under the weight ``g = psi(x)/x`` of
a per-pair argument x, times a spatial factor. The face filters of meshes
and the normal filters of point sets are the rows of one table, ``PRESET``;
the median and gradient-descent flavours take their own step instead.

All filters are double-buffered: pass t reads only the normals of pass t-1.
Per-face accumulation runs in ascending face-index order, so results do not
depend on the order in which neighbors were discovered.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .kernels import Kernel
from .meshcore import (NeighborhoodSpec, TriMesh, check_positive, mean_positive_distance,
                       pair_angles, parse_key_values, scatter_rows, text_value,
                       unit_rows, weighted_unit_mean)

# A row per named filter: its domain ("mesh": FilterSpec, "points":
# PointFilterSpec); the pinned kernel kind and its box floor and the pinned
# argument (None: the spec's own); the spatial factor ("gaussian" makes a
# mesh filter bilateral; "area"; a point filter's "auto" sigma_d rule,
# "half_radius" or "mean_distance"); the flavour (None leaves the normals
# alone); whether sigma="auto" is allowed. Point rows weigh with exp(-x²/σ²),
# the "gaussian" kernel's g times σ²/2.
Method = namedtuple("Method", "domain kind floor argument spatial flavour auto_sigma")
PRESET = {name: Method(*row) for name, row in {
    "generic_unilateral": ("mesh", None, 0.0, None, None, "mean", False),
    "generic_bilateral": ("mesh", None, 0.0, None, "gaussian", "mean", False),
    "belyaev_ohtake": ("mesh", "gaussian", 0.0, "angle_per_distance", None, "mean", False),
    "yagou_mean": ("mesh", "l2", 0.0, "euclidean", "area", "mean", False),
    "yagou_median": ("mesh", "l1", 0.0, "euclidean", None, "median", False),
    "yagou_weighted_median": ("mesh", "truncated_l1", 0.0, "euclidean", None,
                              "weighted_median", False),
    "yadav_box_2017": ("mesh", "box", 0.1, "angle", None, "mean", False),
    "shen_fuzzy_median": ("mesh", "gaussian", 0.0, "euclidean", None, "fuzzy_median", False),
    "tasdizen": ("mesh", "gaussian", 0.0, "angle", None, "mean", False),
    "centin_signoroni": ("mesh", "centin_rational", 0.0, "curvature_edge", None, "mean", False),
    "zheng_bilateral": ("mesh", "gaussian", 0.0, "euclidean", "gaussian", "mean", False),
    "zhang_guided": ("mesh", "gaussian", 0.0, "guidance", "gaussian", "mean", False),
    "yadav_tukey_2018": ("mesh", "tukey", 0.0, "euclidean", "gaussian", "mean", False),
    "gradient_descent": ("mesh", None, 0.0, "euclidean", None, "gradient", False),
    "li_bilateral": ("points", "gaussian", 0.0, "angle", "half_radius", "mean", True),
    "zheng_guided_pc": ("points", "gaussian", 0.0, "guidance", "mean_distance", "mean", False),
    "digne_bilateral": ("points", None, 0.0, None, None, None, True),
    "zheng_rolling": ("points", "gaussian", 0.0, "euclidean", "mean_distance", "mean", False),
    "yadav_vnvt": ("points", "box", 0.0, "angle", None, "mean", False),
}.items()}
METHODS = tuple(m for m, row in PRESET.items() if row.domain == "mesh")
POINT_METHODS = tuple(m for m, row in PRESET.items() if row.domain == "points")

ARGUMENTS = (
    "euclidean",          # ||n_i - n_j||
    "angle",              # angle between n_i and n_j, radians
    "angle_per_distance", # angle / centroid distance
    "curvature_edge",     # face curvature * global average edge length
    "guidance",           # ||G_i - G_j|| of guidance normals
)


@dataclass(frozen=True)
class FilterSpec:
    method: str
    range_kernel: Kernel
    neighborhood: NeighborhoodSpec = NeighborhoodSpec("shared_vertex", include_self=True)
    spatial_sigma: float | str | None = None  # number, "auto", or None (unilateral)
    sigma_d_global: bool = False              # "auto" as global mean instead of per-face
    iterations: int = 1
    step_lambda: float = 1.0                  # gradient flavour only
    argument: str = "euclidean"
    guidance_threshold: float = math.radians(60.0)  # guidance argument only

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; valid: {METHODS}")
        if self.argument not in ARGUMENTS:
            raise ValueError(f"unknown argument {self.argument!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (0.0 < self.step_lambda <= 1.0):
            raise ValueError("step_lambda must be in (0, 1]")
        row, kernel = PRESET[self.method], self.range_kernel
        if row.kind is not None and kernel.kind != row.kind:
            raise ValueError(f"method {self.method} requires a {row.kind} kernel, "
                             f"got {kernel.kind}")
        if row.kind == "box" and abs(kernel.box_floor - row.floor) > 1e-15:
            raise ValueError(f"method {self.method} requires box_floor = {row.floor}")
        if row.argument is not None and self.argument != row.argument:
            raise ValueError(f"method {self.method} uses argument {row.argument!r}")
        if row.spatial == "gaussian" and self.spatial_sigma is None:
            raise ValueError(f"method {self.method} is bilateral: set spatial_sigma")
        check_positive("spatial_sigma", self.spatial_sigma)
        if row.flavour == "gradient" and not kernel.differentiable:
            raise ValueError(f"method {self.method} needs a differentiable kernel")
        if not (0.0 < self.guidance_threshold < math.pi):
            raise ValueError("guidance_threshold must be in (0, pi)")

    @classmethod
    def preset(cls, method: str, sigma: float = 0.35, **kw) -> "FilterSpec":
        """Build a spec with the method's pinned kernel/argument filled in."""
        row = PRESET[method]
        if row.kind is None:
            kernel = kw.pop("range_kernel", Kernel("gaussian", sigma))
        else:
            kernel = Kernel(row.kind, sigma, box_floor=row.floor)
        kw.setdefault("argument", row.argument or "euclidean")
        if row.spatial == "gaussian":
            kw.setdefault("spatial_sigma", "auto")
        return cls(method=method, range_kernel=kernel, **kw)

    # ---- flat key=value serialization -------------------------------
    TEXT_KEYS = ("method", "kernel", "sigma", "box_floor", "sigma_d", "sigma_d_global",
                 "neighborhood", "radius", "include_self", "iterations", "lambda",
                 "argument", "guidance_threshold_deg")

    def to_text(self) -> str:
        nb, kernel = self.neighborhood, self.range_kernel
        values = (self.method, kernel.kind, repr(kernel.sigma), repr(kernel.box_floor),
                  "none" if self.spatial_sigma is None else str(self.spatial_sigma),
                  str(self.sigma_d_global).lower(), nb.mode,
                  "none" if nb.radius is None else repr(nb.radius),
                  str(nb.include_self).lower(), str(self.iterations),
                  repr(self.step_lambda), self.argument,
                  repr(math.degrees(self.guidance_threshold)))
        return "".join(f"{k}={v}\n" for k, v in zip(self.TEXT_KEYS, values))

    @classmethod
    def from_text(cls, text: str) -> "FilterSpec":
        kv = parse_key_values(text, cls.TEXT_KEYS)
        kernel = Kernel(kv["kernel"], float(kv["sigma"]),
                        box_floor=float(kv.get("box_floor", 0.0)))
        nb = NeighborhoodSpec(kv.get("neighborhood", "shared_vertex"),
                              text_value(kv.get("radius", "none")),
                              kv.get("include_self", "true") == "true")
        return cls(
            method=kv["method"],
            range_kernel=kernel,
            neighborhood=nb,
            spatial_sigma=text_value(kv.get("sigma_d", "none")),
            sigma_d_global=kv.get("sigma_d_global", "false") == "true",
            iterations=int(kv.get("iterations", 1)),
            step_lambda=float(kv.get("lambda", 1.0)),
            argument=kv.get("argument", "euclidean"),
            guidance_threshold=math.radians(float(kv.get("guidance_threshold_deg", 60.0))),
        )


@dataclass
class NormalField:
    """Per-face unit normals after filtering, plus bookkeeping."""

    normals: np.ndarray
    iterations: int = 0
    zero_weight_warnings: int = 0


# ----------------------------------------------------------------------
# vector medians

def vector_median(normals, weights=None) -> tuple[np.ndarray, int]:
    """The member minimizing the (weighted) sum of Euclidean distances.

    Returns (vector, index); ties resolve to the lowest input position.
    """
    normals = np.asarray(normals, dtype=float)
    if len(normals) == 0:
        raise ValueError("empty set")
    w = None if weights is None else np.asarray(weights, dtype=float)[None]
    idx = int(_vector_median_index(normals[None], w)[0])
    return normals[idx], idx


def vector_directional_median(normals) -> tuple[np.ndarray, int]:
    """The member minimizing the sum of angles to all members."""
    normals = np.asarray(normals, dtype=float)
    if len(normals) == 0:
        raise ValueError("empty set")
    idx = int(_directional_median_index(normals[None])[0])
    return normals[idx], idx


def _vector_median_index(cand, weights=None):
    """Per row of ``cand`` (m, k, d): the position of the member minimizing
    the sum of Euclidean distances to all members, each distance to member b
    scaled by ``weights[:, b]``. Ties go to the lowest position."""
    m, k, d = cand.shape
    dist = np.zeros((m, k, k))
    diff = np.empty_like(dist)
    for c in range(d):  # adds in the order of np.linalg.norm
        np.subtract(cand[:, :, None, c], cand[:, None, :, c], out=diff)
        dist += np.square(diff, out=diff)
    np.sqrt(dist, out=dist)
    if weights is not None:
        dist *= weights[:, None, :]
    return np.argmin(dist.sum(axis=2), axis=1)


def _directional_median_index(cand):
    """Per row of ``cand`` (m, k, d): the position of the member minimizing
    the sum of angles to all members. Ties go to the lowest position."""
    angles = cand @ cand.transpose(0, 2, 1)
    np.clip(angles, -1.0, 1.0, out=angles)
    return np.argmin(np.arccos(angles, out=angles).sum(axis=2), axis=1)


# ----------------------------------------------------------------------
# helpers

def _substitute_nan(w, centers, starts, counts):
    """Replace NaN weights (the L1 family's g(0)) by the largest other weight
    in the same neighborhood; the one fill of the mean and weighted-median passes.

    A neighborhood where that is not finite (every argument was zero, i.e.
    all normals coincide) falls back to uniform weights.
    """
    nan = np.isnan(w)
    if not nan.any():
        return w
    seg_max = np.full(len(counts), -np.inf)
    nonempty = counts > 0
    seg_max[nonempty] = np.maximum.reduceat(np.where(nan, -np.inf, w), starts[nonempty])
    fill = seg_max[centers]
    return np.where(nan, np.where(np.isfinite(fill), fill, 1.0), w)


def _pair_arguments(spec, mesh, graph):
    """The per-pair argument x_ij of ``spec`` on the face graph, as a
    function of the normals; what does not depend on them is computed once."""
    centers, neighbors, _, _ = graph
    if spec.argument == "curvature_edge":
        kappa_face = mesh.vertex_mean_curvature()[mesh.faces].mean(axis=1)
        x = kappa_face[neighbors] * mesh.avg_edge_length
        return lambda normals: x
    if spec.argument == "angle":
        return lambda normals: _face_angles(normals, centers, neighbors)
    if spec.argument == "angle_per_distance":
        d = np.linalg.norm(mesh.face_centroids[centers] - mesh.face_centroids[neighbors], axis=1)
        pos = d > 0
        return lambda normals: np.where(
            pos, _face_angles(normals, centers, neighbors) / np.where(pos, d, 1.0), 0.0)
    return pair_argument(spec.argument, graph, lambda normals: guidance_normals(
        mesh, spec.neighborhood, spec.guidance_threshold, normals=normals))


def _face_angles(normals, centers, neighbors):
    """The angle of each face pair from the elementwise dot. Not
    ``pair_angles``: its matrix-vector product rounds the dot of a triangle
    with its reversed copy to 1 ulp above -1, which arccos turns into
    pi - 1.5e-8, and that moves the box kernel's energy by 1e-8."""
    dots = np.einsum("ij,ij->i", normals[centers], normals[neighbors])
    return np.arccos(np.clip(dots, -1.0, 1.0))


def pair_argument(argument, graph, guide=None):
    """A point filter's argument, as a function of the normals: the angle
    between the normals of each pair of the CSR graph, or the distance
    between them ("euclidean") or between their guidance normals
    ``guide(normals)`` ("guidance"); the face filters take the last two."""
    centers, neighbors, starts, counts = graph
    if argument == "angle":
        return lambda normals: pair_angles(normals, neighbors, starts, counts)

    def distances(normals):
        g = guide(normals) if argument == "guidance" else normals
        return np.linalg.norm(g[centers] - g[neighbors], axis=1)
    return distances


def _spatial_weights(spec, mesh, graph):
    """Spatial factor f(d_ij): face areas for an "area" row, else the
    centroid-distance Gaussian when the spec sets a spatial sigma, else ones.

    It depends only on the vertices, which stay put while normals are
    filtered, so it is computed once per filter call.
    """
    centers, neighbors, _, _ = graph
    if PRESET[spec.method].spatial == "area":
        return mesh.face_areas[neighbors]
    if spec.spatial_sigma is None:
        return np.ones(len(neighbors))
    d = np.linalg.norm(mesh.face_centroids[centers] - mesh.face_centroids[neighbors], axis=1)
    sd = spec.spatial_sigma
    if sd == "auto" and spec.sigma_d_global:
        pos = d > 0
        sd = d[pos].mean() if pos.any() else 1.0
    elif sd == "auto":  # per face: the mean of its positive centroid distances
        sd = mean_positive_distance(d, centers, len(mesh.faces))
    return np.exp(-(d * d) / (2.0 * sd * sd))


def guidance_normals(mesh: TriMesh, neighborhood: NeighborhoodSpec,
                     angle_threshold: float, normals=None) -> np.ndarray:
    """Area-weighted average of neighborhood normals within the angle threshold."""
    if not (0.0 < angle_threshold < math.pi):
        raise ValueError("angle_threshold must be in (0, pi)")
    prev = mesh.face_normals if normals is None else np.asarray(normals, dtype=float)
    centers, flat, _, _ = mesh.neighbor_graph(replace(neighborhood, include_self=True))
    dots = np.clip(np.einsum("ij,ij->i", prev[centers], prev[flat]), -1.0, 1.0)
    near = dots > math.cos(angle_threshold)
    return weighted_unit_mean(prev, mesh.face_areas[flat[near]], centers[near], flat[near])[0]


# ----------------------------------------------------------------------
# the filters

def smooth_normals(normals, iterations, graph, argument, weight, spatial):
    """The M-smoother of every mean-flavoured face and point filter: passes of
    ``weighted_unit_mean`` under the range weight ``weight(argument(normals))``
    (NaN filled per neighbourhood) times ``spatial``. Returns (normals,
    vanished sums over all passes)."""
    centers, neighbors, starts, counts = graph
    warnings = 0
    for _ in range(iterations):
        w = _substitute_nan(weight(argument(normals)), centers, starts, counts) * spatial
        normals, kept = weighted_unit_mean(normals, w, centers, neighbors)
        warnings += kept
    return normals, warnings


def filter_normals(mesh: TriMesh, spec: FilterSpec, initial=None) -> NormalField:
    """Run spec.iterations passes of the method's flavour over the face normals."""
    flavour = PRESET[spec.method].flavour
    if flavour == "gradient":
        return filter_gradient_descent(mesh, spec, initial=initial)
    prev = np.array(mesh.face_normals if initial is None else initial, dtype=float)
    graph = mesh.neighbor_graph(spec.neighborhood)
    if flavour == "mean":
        prev, warnings = smooth_normals(prev, spec.iterations, graph,
                                        _pair_arguments(spec, mesh, graph),
                                        spec.range_kernel.weight,
                                        _spatial_weights(spec, mesh, graph))
    else:
        warnings = 0
        for _ in range(spec.iterations):
            prev, count = _median_pass(flavour, spec.range_kernel, prev, graph)
            warnings += count
    return NormalField(prev, iterations=spec.iterations, zero_weight_warnings=warnings)


# Entries of one (m, k, k) array in the median pass: 512 KiB, so a batch
# stays in cache and its memory does not grow with the square of a large
# (radius) neighbourhood.
_MEDIAN_BLOCK = 1 << 16


def _median_pass(flavour, kernel, prev, graph):
    """One pass of the median flavours, in batches of faces that have the
    same neighbourhood size. A face with no neighbour keeps its normal and
    counts as a warning, as in the averaging engine."""
    centers, neighbors, starts, counts = graph
    new = prev.copy()
    warnings = int(np.count_nonzero(counts == 0))
    w = None
    if flavour == "weighted_median":
        w = kernel.weight(np.linalg.norm(prev[centers] - prev[neighbors], axis=1))
        w = _substitute_nan(w, centers, starts, counts)
    for k in np.unique(counts[counts > 0]):
        group = np.flatnonzero(counts == k)
        for rows in np.array_split(group, math.ceil(len(group) * k * k / _MEDIAN_BLOCK)):
            pairs = starts[rows, None] + np.arange(k)
            new[rows], count = _median_batch(flavour, kernel, prev[rows], prev[neighbors[pairs]],
                                             None if w is None else w[pairs])
            warnings += count
    return new, warnings


def _median_batch(flavour, kernel, own, cand, w):
    """New normals of m faces with normals ``own`` (m, 3), neighbourhood
    normals ``cand`` (m, k, 3) and, for the weighted median, pair weights
    ``w`` (m, k); and the number of faces that kept their own normal because
    the fuzzy median's weighted sum vanished."""
    pick = np.arange(len(cand))
    if flavour == "fuzzy_median":
        nvd = cand[pick, _directional_median_index(cand)]
        w = kernel.weight(np.linalg.norm(cand - nvd[:, None], axis=2))
        # the single-vector norm: the directional median's arccos near 1
        # would amplify a last-bit difference on the next pass
        return unit_rows((w[:, :, None] * cand).sum(axis=1), own)
    return cand[pick, _vector_median_index(cand, w)], 0


def filter_gradient_descent(mesh: TriMesh, spec: FilterSpec, initial=None) -> NormalField:
    """Minimize the robust energy by explicit per-normal gradient steps."""
    if not spec.range_kernel.differentiable:
        raise ValueError("gradient descent needs a differentiable kernel")
    prev = np.array(mesh.face_normals if initial is None else initial, dtype=float)
    centers, flat, _, _ = mesh.neighbor_graph(spec.neighborhood)
    for _ in range(spec.iterations):
        diff = prev[flat] - prev[centers]
        x = np.linalg.norm(diff, axis=1)
        # psi(x) * unit direction == g(x) * (n_j - n_i); exactly 0 when coincident
        g = spec.range_kernel.weight(x)
        contrib = np.where((x > 0)[:, None], g[:, None] * diff, 0.0)
        step = scatter_rows(centers, contrib, len(prev))
        prev = unit_rows(prev + spec.step_lambda * step, prev)[0]
    return NormalField(prev, iterations=spec.iterations)


def energy(mesh: TriMesh, normals, spec: FilterSpec) -> float:
    """The robust energy of a normal field under the spec's kernel/weights."""
    graph = mesh.neighbor_graph(spec.neighborhood)
    x = _pair_arguments(spec, mesh, graph)(np.asarray(normals, dtype=float))
    return float(np.sum(spec.range_kernel.rho(x) * _spatial_weights(spec, mesh, graph)))
