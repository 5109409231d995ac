"""Normal filtering as one robust M-smoother: each pass replaces a normal by
the unit mean of its neighbours' normals under the weight ``g = psi(x)/x`` of
a per-pair argument x, times a spatial factor. The face filters of meshes
and the normal filters of point sets are the rows of one table, ``PRESET``,
each set up by one spec, :class:`FilterSpec`; the median and
gradient-descent flavours take their own step instead.

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
from .meshcore import (NeighborhoodSpec, TriMesh, check_positive, csr_graph, graph_sum,
                       index_graph, mean_positive_distance, pair_angles, pair_distances,
                       pair_slots, unit_rows)

# A row per named filter: its domain ("mesh" or "points"); the pinned kernel
# kind and its box floor and the pinned argument (None: the spec's own); the
# spatial factor ("gaussian" makes a mesh filter bilateral; "area"; a point
# filter's "auto" spatial_sigma rule, "half_radius" or "mean_distance"); the
# flavour (None leaves the normals alone); whether range_kernel="auto" is
# allowed. Every row weighs its pairs with its kernel's g.
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


def _row(method: str) -> Method:
    if method not in PRESET:
        raise ValueError(f"unknown method {method!r}; valid: {tuple(PRESET)}")
    return PRESET[method]


@dataclass(frozen=True)
class FilterSpec:
    """A face filter of meshes or a point filter of clouds: a row of
    ``PRESET`` with its range kernel, neighbourhood and spatial sigma."""

    method: str
    range_kernel: Kernel | str  # "auto" (Li's rule) only where the row allows it
    neighborhood: NeighborhoodSpec = NeighborhoodSpec("shared_vertex", include_self=True)
    spatial_sigma: float | str | None = None  # number, "auto", or None (unilateral)
    iterations: int = 1
    step_lambda: float = 1.0                  # gradient flavour only
    argument: str = "euclidean"
    guidance_threshold: float = math.radians(60.0)  # guidance argument only

    def __post_init__(self):
        row, kernel, nb = _row(self.method), self.range_kernel, self.neighborhood
        if self.argument not in ARGUMENTS:
            raise ValueError(f"unknown argument {self.argument!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (0.0 < self.step_lambda <= 1.0):
            raise ValueError("step_lambda must be in (0, 1]")
        if row.domain == "points" and (nb.mode not in ("knn", "radius") or not nb.include_self):
            raise ValueError(f"point method {self.method} needs a knn or radius "
                             "neighborhood that includes the point itself")
        if row.domain == "mesh" and nb.mode == "knn":
            raise ValueError(f"mesh method {self.method} takes no knn neighborhood")
        if kernel == "auto":
            if not row.auto_sigma:
                raise ValueError(f"range_kernel='auto' is not defined for {self.method}")
        elif row.kind is not None and kernel.kind != row.kind:
            raise ValueError(f"method {self.method} requires a {row.kind} kernel, "
                             f"got {kernel.kind}")
        elif row.kind == "box" and abs(kernel.box_floor - row.floor) > 1e-15:
            raise ValueError(f"method {self.method} requires box_floor = {row.floor}")
        elif row.flavour == "gradient" and not kernel.differentiable:
            raise ValueError(f"method {self.method} needs a differentiable kernel")
        if row.argument is not None and self.argument != row.argument:
            raise ValueError(f"method {self.method} uses argument {row.argument!r}")
        if row.spatial not in (None, "area") and self.spatial_sigma is None:
            raise ValueError(f"method {self.method} is bilateral: set spatial_sigma")
        check_positive("spatial_sigma", self.spatial_sigma)
        if not (0.0 < self.guidance_threshold < math.pi):
            raise ValueError("guidance_threshold must be in (0, pi)")

    @classmethod
    def preset(cls, method: str, sigma: float | str = 0.35, **kw) -> "FilterSpec":
        """Build a spec with the method's pinned kernel and argument filled in,
        an "auto" spatial sigma where the row weighs distances, and a point
        row's 12 nearest neighbours; sigma="auto" gives the auto kernel."""
        row = _row(method)
        if "range_kernel" not in kw:
            kw["range_kernel"] = "auto" if sigma == "auto" else \
                Kernel(row.kind or "gaussian", sigma, box_floor=row.floor)
        kw.setdefault("argument", row.argument or "euclidean")
        if row.spatial not in (None, "area"):
            kw.setdefault("spatial_sigma", "auto")
        if row.domain == "points":
            kw.setdefault("neighborhood", NeighborhoodSpec("knn", k=12))
        return cls(method=method, **kw)

    # ---- flat key=value serialization -------------------------------
    TEXT_KEYS = ("method", "kernel", "sigma", "box_floor", "sigma_d", "neighborhood",
                 "radius", "include_self", "k", "iterations", "lambda", "argument",
                 "guidance_threshold")

    def to_text(self) -> str:
        nb, kernel = self.neighborhood, self.range_kernel
        kind, sigma, floor = ("auto", "auto", 0.0) if kernel == "auto" else \
            (kernel.kind, kernel.sigma, kernel.box_floor)
        values = (self.method, kind, sigma, floor, self.spatial_sigma, nb.mode, nb.radius,
                  str(nb.include_self).lower(), nb.k, self.iterations, self.step_lambda,
                  self.argument, self.guidance_threshold)
        return "".join(f"{k}={'none' if v is None else v}\n"
                       for k, v in zip(self.TEXT_KEYS, values))

    @classmethod
    def from_text(cls, text: str) -> "FilterSpec":
        kv = _key_values(text, cls.TEXT_KEYS, required=("method", "kernel", "sigma"))
        kernel = "auto" if kv["sigma"] == "auto" else Kernel(
            kv["kernel"], float(kv["sigma"]), box_floor=float(kv.get("box_floor", 0.0)))
        nb = NeighborhoodSpec(kv.get("neighborhood", "shared_vertex"),
                              _text_value(kv.get("radius", "none")),
                              kv.get("include_self", "true") == "true",
                              _text_value(kv.get("k", "none"), int))
        return cls(
            method=kv["method"],
            range_kernel=kernel,
            neighborhood=nb,
            spatial_sigma=_text_value(kv.get("sigma_d", "none")),
            iterations=int(kv.get("iterations", 1)),
            step_lambda=float(kv.get("lambda", 1.0)),
            argument=kv.get("argument", "euclidean"),
            guidance_threshold=float(kv.get("guidance_threshold", math.radians(60.0))),
        )


def _key_values(text: str, keys, required) -> dict:
    """The ``key=value`` lines of a spec text; blank and ``#`` lines are
    skipped, and a key not in ``keys``, or a missing ``required`` one, is an error."""
    kv = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            k, eq, v = (part.strip() for part in line.partition("="))
            if not eq:
                raise ValueError(f"line {ln}: expected key=value")
            if k not in keys:
                raise ValueError(f"line {ln}: unknown key {k!r}")
            kv[k] = v
    for k in required:
        if k not in kv:
            raise ValueError(f"missing key {k!r}")
    return kv


def _text_value(text: str, convert=float):
    """A spec-text value: None for "none", "auto" as it is, else convert(text)."""
    return None if text == "none" else text if text == "auto" else convert(text)


@dataclass
class NormalField:
    """Per-face unit normals after filtering, plus bookkeeping."""

    normals: np.ndarray
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
    idx = int(_vector_median_index(normals, np.arange(len(normals))[None], w)[0])
    return normals[idx], idx


def vector_directional_median(normals) -> tuple[np.ndarray, int]:
    """The member minimizing the sum of angles to all members."""
    normals = np.asarray(normals, dtype=float)
    if len(normals) == 0:
        raise ValueError("empty set")
    idx = int(_directional_median_index(normals[None])[0])
    return normals[idx], idx


def _vector_median_index(normals, members, weights=None):
    """Per row of ``members`` (m, k) of rows of ``normals``: the position of
    the member minimizing the sum of Euclidean distances to all members, each
    distance to member b scaled by ``weights[:, b]``. Ties go to the lowest position."""
    dist = pair_distances(normals, members[:, :, None], members[:, None, :])
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
    """The argument ``(x, slot)`` of ``spec`` on the face graph, as in
    :func:`pair_argument`; what does not depend on the normals is computed once."""
    centers, neighbors, _, _ = graph
    if spec.argument == "curvature_edge":
        kappa_face = mesh.vertex_mean_curvature()[mesh.faces].mean(axis=1)
        x = kappa_face[neighbors] * mesh.avg_edge_length
        return (lambda normals: x), ...
    if spec.argument == "angle_per_distance":
        d = pair_distances(mesh.face_centroids, centers, neighbors)
        (angle, _), pos = pair_argument("angle", graph), d > 0
        return (lambda normals: np.where(pos, angle(normals) / np.where(pos, d, 1.0), 0.0)), ...
    return pair_argument(spec.argument, graph, lambda normals: guidance_normals(
        mesh, spec.neighborhood, spec.guidance_threshold, normals=normals))


def pair_argument(argument, graph, guide=None):
    """A face or point filter's argument as ``(x, slot)``: pair p of the CSR
    graph takes ``x(normals)[slot[p]]``. It is the angle between the normals
    of a pair, taken per pair (``slot`` is ``...``), or the distance between
    them ("euclidean") or their guidance normals ``guide(normals)``
    ("guidance"), which is symmetric and so taken once per :func:`pair_slots` slot."""
    _, neighbors, starts, counts = graph
    if argument == "angle":
        return (lambda normals: pair_angles(normals, neighbors, starts, counts)), ...
    slot, i, j = pair_slots(graph)
    if argument == "guidance":
        return (lambda normals: pair_distances(guide(normals), i, j)), slot
    return (lambda normals: pair_distances(normals, i, j)), slot


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
    d = pair_distances(mesh.face_centroids, centers, neighbors)
    sd = spec.spatial_sigma
    if sd == "auto":  # per face: the mean of its positive centroid distances
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
    graph = csr_graph(centers[near] * len(prev) + flat[near], len(prev))
    return unit_rows(graph_sum(graph, len(prev))(mesh.face_areas[graph[1]], prev), prev)[0]


# ----------------------------------------------------------------------
# the filters

def smooth_normals(normals, iterations, graph, argument, weight, spatial):
    """The M-smoother of every mean-flavoured face and point filter: each pass
    takes a normal to the unit sum of its neighbours' normals under the weight
    ``weight(x)[slot]`` of the argument ``(x, slot)``, NaN filled per neighbourhood,
    times ``spatial``. Returns (normals, sums that vanished and kept their normal)."""
    centers, _, starts, counts = graph
    x, slot = argument
    total = graph_sum(graph, len(normals))
    warnings = 0
    for _ in range(iterations):
        w = _substitute_nan(weight(x(normals))[slot], centers, starts, counts) * spatial
        normals, kept = unit_rows(total(w, normals), normals)
        warnings += kept
    return normals, warnings


def filter_normals(mesh: TriMesh, spec: FilterSpec, initial=None) -> NormalField:
    """Run spec.iterations passes of the method's flavour over the face normals."""
    row = PRESET[spec.method]
    if row.domain != "mesh":
        raise ValueError(f"{spec.method} is a point filter: use filter_point_normals")
    flavour = row.flavour
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
    return NormalField(prev, zero_weight_warnings=warnings)


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
        w = kernel.weight(pair_distances(prev, centers, neighbors))
        w = _substitute_nan(w, centers, starts, counts)
    for k in np.unique(counts[counts > 0]):
        group = np.flatnonzero(counts == k)
        for rows in np.array_split(group, math.ceil(len(group) * k * k / _MEDIAN_BLOCK)):
            pairs = starts[rows, None] + np.arange(k)
            new[rows], count = _median_batch(flavour, kernel, prev, rows, neighbors[pairs],
                                             None if w is None else w[pairs])
            warnings += count
    return new, warnings


def _median_batch(flavour, kernel, prev, rows, members, w):
    """New normals of the m faces ``rows`` with neighbourhoods ``members``
    (m, k), both indices into the normals ``prev``, and, for the weighted
    median, pair weights ``w`` (m, k); and the number of faces that kept
    their own normal because the fuzzy median's weighted sum vanished."""
    pick = np.arange(len(members))
    if flavour == "fuzzy_median":
        cand = prev[members]
        nvd = members[pick, _directional_median_index(cand)]
        w = kernel.weight(pair_distances(prev, members, nvd[:, None]))
        # the single-vector norm: the directional median's arccos near 1
        # would amplify a last-bit difference on the next pass
        return unit_rows((w[:, :, None] * cand).sum(axis=1), prev[rows])
    return prev[members[pick, _vector_median_index(prev, members, w)]], 0


def filter_gradient_descent(mesh: TriMesh, spec: FilterSpec, initial=None) -> NormalField:
    """Minimize the robust energy by explicit per-normal gradient steps."""
    if not spec.range_kernel.differentiable:
        raise ValueError("gradient descent needs a differentiable kernel")
    prev = np.array(mesh.face_normals if initial is None else initial, dtype=float)
    centers, flat, _, _ = mesh.neighbor_graph(spec.neighborhood)
    total = graph_sum(index_graph(centers, len(prev)), len(flat))  # centers sorted: diff[p]
    for _ in range(spec.iterations):
        diff = prev[flat] - prev[centers]
        x = np.linalg.norm(diff, axis=1)
        # psi(x) * unit direction == g(x) * (n_j - n_i); exactly 0 when coincident
        g = np.where(x > 0, spec.range_kernel.weight(x), 0.0)
        prev = unit_rows(prev + spec.step_lambda * total(g, diff), prev)[0]
    return NormalField(prev)


def energy(mesh: TriMesh, normals, spec: FilterSpec) -> float:
    """The robust energy of a normal field under the spec's kernel/weights."""
    graph = mesh.neighbor_graph(spec.neighborhood)
    x, slot = _pair_arguments(spec, mesh, graph)
    x = x(np.asarray(normals, dtype=float))[slot]
    return float(np.sum(spec.range_kernel.rho(x) * _spatial_weights(spec, mesh, graph)))
