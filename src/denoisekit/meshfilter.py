"""Normal filtering as one robust M-smoother: each pass replaces a normal by
the unit mean of its neighbours' normals under the weight ``g = psi(x)/x`` of
a per-pair argument x, times a spatial factor. The face filters of meshes
and the normal filters of point sets are the rows of one table, ``PRESET``,
each set up by one spec, :class:`FilterSpec`. Shen's fuzzy median is such a
mean pass; the vector medians and gradient descent take their own step.

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
from .meshcore import (NeighborhoodSpec, TriMesh, check_positive, graph_sum, index_graph,
                       pair_distances, pair_dots, unit_rows)

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
        # a mesh row's mean pass weighs centroid distances whenever a sigma is set
        reads_sigma = row.spatial not in (None, "area") or (
            row.domain == "mesh" and row.spatial is None and row.flavour == "mean")
        if self.spatial_sigma is not None and not reads_sigma:
            raise ValueError(f"method {self.method} has no spatial weight: "
                             "leave spatial_sigma unset")
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
    idx = int(_median_index(normals, np.arange(len(normals))[None], "euclidean", w)[0])
    return normals[idx], idx


def vector_directional_median(normals) -> tuple[np.ndarray, int]:
    """The member minimizing the sum of angles to all members."""
    normals = np.asarray(normals, dtype=float)
    if len(normals) == 0:
        raise ValueError("empty set")
    idx = int(_median_index(normals, np.arange(len(normals))[None], "angle")[0])
    return normals[idx], idx


def _median_index(normals, members, argument, weights=None):
    """Per row of ``members`` (m, k) of rows of ``normals``: the position of the
    member minimizing the sum of its ``argument`` ("euclidean" or "angle") to
    all members, that to member b scaled by ``weights[:, b]``. Ties go to the
    lowest position."""
    x = pair_argument(argument, members[:, :, None], members[:, None, :])(normals)
    if weights is not None:
        x *= weights[:, None, :]
    return np.argmin(x.sum(axis=2), axis=1)


# ----------------------------------------------------------------------
# helpers

def _substitute_nan(w, graph):
    """Replace NaN weights (the L1 family's g(0)) by the largest other weight
    in the same neighborhood; the one fill of the mean and weighted-median passes.

    A neighborhood where that is not finite (every argument was zero, i.e.
    all normals coincide) falls back to uniform weights.
    """
    nan = np.isnan(w)
    if not nan.any():
        return w
    centers, _, starts, counts = graph
    seg_max = np.full(len(counts), -np.inf)
    nonempty = counts > 0
    seg_max[nonempty] = np.maximum.reduceat(np.where(nan, -np.inf, w), starts[nonempty])
    fill = seg_max[centers]
    return np.where(nan, np.where(np.isfinite(fill), fill, 1.0), w)


def _pair_arguments(spec, mesh, graph):
    """The argument ``(x, slot)`` of ``spec`` on the face graph: pair p takes
    ``x(normals)[slot[p]]``. What does not depend on the normals is computed once."""
    if spec.argument == "curvature_edge":  # a per-face value: each pair takes its neighbour's
        x = mesh.vertex_mean_curvature()[mesh.faces].mean(axis=1) * mesh.avg_edge_length
        return (lambda normals: x), graph[1]
    slot, i, j = graph.slots
    x = pair_argument(spec.argument, i, j, lambda normals: guidance_normals(
        mesh, spec.neighborhood, spec.guidance_threshold, normals=normals))
    if spec.argument == "angle_per_distance":
        d = pair_distances(mesh.face_centroids, i, j)
        pos = d > 0
        return (lambda normals: np.where(pos, x(normals) / np.where(pos, d, 1.0), 0.0)), slot
    return x, slot


def pair_argument(argument, i, j, guide=None):
    """A face or point filter's argument on the pairs (i, j), as a function of
    the normals: the distance between the normals ("euclidean") or between
    their guidance normals ``guide(normals)`` ("guidance"), else the angle
    between the normals. Each is the same bits for (j, i), so a filter takes
    it once per :func:`pair_slots` slot."""
    if argument == "euclidean":
        return lambda normals: pair_distances(normals, i, j)
    if argument == "guidance":
        return lambda normals: pair_distances(guide(normals), i, j)
    return lambda normals: np.arccos(np.clip(pair_dots(normals, i, j), -1.0, 1.0))


def spatial_weights(spec, graph, positions, areas=None):
    """A face or point row's spatial factor, computed once per filter call:
    the neighbours' ``areas`` on an "area" row, else 1 without a spatial sigma
    s, else exp(-d²/2s²) on faces and exp(-d²/s²) on points of the pair
    distances d of ``positions``. An "auto" s is, per center, half its largest
    d on a "half_radius" row, else the mean of its positive d (1 if none)."""
    centers, neighbors, starts, counts = graph
    row, sd = PRESET[spec.method], spec.spatial_sigma
    if row.spatial == "area":
        return areas[neighbors]
    if sd is None:
        return 1.0
    d = pair_distances(positions, centers, neighbors)
    if sd == "auto" and row.spatial == "half_radius":
        r = np.maximum.reduceat(d, starts)
        sd = np.where(r > 0, r, 1.0)[centers] / 2.0
    elif sd == "auto":
        pos = d > 0
        n_pos = np.bincount(centers[pos], minlength=len(counts))
        total = np.bincount(centers[pos], weights=d[pos], minlength=len(counts))
        sd = np.where(n_pos > 0, total / np.maximum(n_pos, 1), 1.0)[centers]
    return np.exp(-(d * d) / ((2.0 if row.domain == "mesh" else 1.0) * sd * sd))


def guidance_normals(mesh: TriMesh, neighborhood: NeighborhoodSpec,
                     angle_threshold: float, normals=None) -> np.ndarray:
    """Per face, the unit area-weighted sum of the normals of its neighbourhood,
    itself included, that lie within the angle threshold of its own; the
    others weigh 0 on the cached graph."""
    if not (0.0 < angle_threshold < math.pi):
        raise ValueError("angle_threshold must be in (0, pi)")
    prev = mesh.face_normals if normals is None else np.asarray(normals, dtype=float)
    graph = centers, neighbors, _, _ = mesh.neighbor_graph(replace(neighborhood,
                                                                   include_self=True))
    w = np.where(pair_dots(prev, centers, neighbors) > math.cos(angle_threshold),
                 mesh.face_areas[neighbors], 0.0)
    return unit_rows(graph_sum(graph, len(prev))(w, prev), prev)[0]


# ----------------------------------------------------------------------
# the filters

def smooth_normals(normals, iterations, graph, argument, weight, spatial):
    """The M-smoother of every mean-flavoured face and point filter and of the fuzzy
    median: each pass takes a normal to the unit sum of its neighbours' normals under
    the weight ``weight(x)[slot]`` of the argument ``(x, slot)``, NaN filled per
    neighbourhood, times ``spatial``. Returns (normals, sums that vanished and kept
    their normal)."""
    x, slot = argument
    total = graph_sum(graph, len(normals))
    warnings = 0
    for _ in range(iterations):
        w = _substitute_nan(weight(x(normals))[slot], graph) * spatial
        normals, kept = unit_rows(total(w, normals), normals)
        warnings += int(np.count_nonzero(kept))
    return normals, warnings


def filter_normals(mesh: TriMesh, spec: FilterSpec, initial=None) -> NormalField:
    """Run spec.iterations passes of the method's flavour over the face normals."""
    row = PRESET[spec.method]
    if row.domain != "mesh":
        raise ValueError(f"{spec.method} is a point filter: use filter_point_normals")
    flavour = row.flavour
    if flavour == "gradient":
        return filter_gradient_descent(mesh, spec, initial=initial)
    prev = _initial_normals(mesh, initial)
    graph = mesh.neighbor_graph(spec.neighborhood)
    if flavour in ("mean", "fuzzy_median"):
        prev, warnings = smooth_normals(
            prev, spec.iterations, graph,
            _pair_arguments(spec, mesh, graph) if flavour == "mean" else _fuzzy_argument(graph),
            spec.range_kernel.weight,
            spatial_weights(spec, graph, mesh.face_centroids, mesh.face_areas))
        return NormalField(prev, zero_weight_warnings=warnings)
    x, slot = _pair_arguments(spec, mesh, graph)
    dirty = np.ones(len(prev), dtype=bool)  # the first pass computes every face
    for _ in range(spec.iterations):
        w = None if flavour == "median" else \
            _substitute_nan(spec.range_kernel.weight(x(prev))[slot], graph)
        prev, dirty = _median_pass(prev, graph, dirty, w)
    # a vector median keeps the normal of each face without a neighbour, and only those
    return NormalField(prev, spec.iterations * int(np.count_nonzero(graph[3] == 0)))


def _initial_normals(mesh, initial):
    """A copy of the normals a face filter starts from: the mesh's, or a finite (F, 3) initial."""
    prev = np.array(mesh.face_normals if initial is None else initial, dtype=float)
    if prev.shape != mesh.face_normals.shape:
        raise ValueError(f"initial normals must be ({len(mesh.faces)}, 3), not {prev.shape}")
    bad = np.flatnonzero(~np.isfinite(prev).all(axis=1))
    if initial is not None and len(bad):
        raise ValueError(f"initial normal {bad[0]} is not finite: {prev[bad[0]]}")
    return prev


# Entries of one (m, k, k) array of a median batch: 128 KiB, so a batch
# stays in cache and its memory does not grow with the square of a large
# (radius) neighbourhood. At 512 KiB a batch's temporaries were mapped and
# faulted afresh in a process whose glibc mmap threshold was never raised,
# such as an `experiment` worker.
_MEDIAN_BLOCK = 1 << 14


def _median_pairs(normals, graph, faces, argument, weights=None):
    """Per face of the mask ``faces`` that has a neighbour, the pair of its
    :func:`_median_index` of ``argument`` among its neighbours' ``normals`` (the
    others 0), in batches of one neighbourhood size."""
    _, neighbors, starts, counts = graph
    pair = np.zeros(len(counts), dtype=np.intp)
    for k in np.unique(counts[faces & (counts > 0)]):
        group = np.flatnonzero(faces & (counts == k))
        for rows in np.array_split(group, math.ceil(len(group) * k * k / _MEDIAN_BLOCK)):
            pairs = starts[rows, None] + np.arange(k)
            pair[rows] = starts[rows] + _median_index(
                normals, neighbors[pairs], argument, None if weights is None else weights[pairs])
    return pair


def _median_pass(prev, graph, dirty, weights):
    """One vector median pass, weighted by the pair ``weights``, over the ``dirty`` faces; the
    others' neighbourhoods are as when last computed, so they keep their normals. Returns the
    normals and the next dirty faces: each whose normal or a neighbour's changed its bits."""
    centers, neighbors, _, counts = graph
    new = prev.copy()
    dirty &= counts > 0
    new[dirty] = prev[neighbors[_median_pairs(prev, graph, dirty, "euclidean", weights)[dirty]]]
    dirty = (new.view(np.int64) != prev.view(np.int64)).any(axis=1)  # -0.0, NaN exact
    dirty[centers[dirty[neighbors]]] = True  # and each face with a moved neighbour
    return new, dirty


def _fuzzy_argument(graph):
    """Shen's fuzzy median as a mean pass: its argument ``(x, ...)`` is each
    neighbour's distance to the directional median of the neighbourhood."""
    centers, neighbors, _, counts = graph
    return (lambda normals: pair_distances(normals, neighbors, neighbors[
        _median_pairs(normals, graph, counts > 0, "angle")[centers]])), ...


def filter_gradient_descent(mesh: TriMesh, spec: FilterSpec, initial=None) -> NormalField:
    """Minimize the robust energy by explicit per-normal gradient steps of size lambda,
    capped at 1 / sum_j g_ij on the faces where lambda * sum_j g_ij > 1."""
    if not spec.range_kernel.differentiable:
        raise ValueError("gradient descent needs a differentiable kernel")
    prev = _initial_normals(mesh, initial)
    graph = centers, flat, _, _ = mesh.neighbor_graph(spec.neighborhood)
    x, slot = _pair_arguments(spec, mesh, graph)
    total = graph_sum(index_graph(centers, len(prev)), len(flat))  # centers sorted: pair order
    for _ in range(spec.iterations):
        d = x(prev)[slot]
        # psi(d) * unit direction == g(d) * (n_j - n_i); exactly 0 when coincident
        g = np.where(d > 0, spec.range_kernel.weight(d), 0.0)
        # past lambda * sum_j g_ij = 1 the step overshoots the weighted mean: cap it there
        gsum = np.bincount(centers, g, len(prev))
        cap = spec.step_lambda * gsum > 1
        step = np.where(cap, 1.0 / np.where(cap, gsum, 1.0), spec.step_lambda)[:, None]
        prev = unit_rows(prev + step * total(g, prev[flat] - prev[centers]), prev)[0]
    return NormalField(prev)


def energy(mesh: TriMesh, normals, spec: FilterSpec) -> float:
    """The robust energy of a normal field under the spec's kernel/weights."""
    graph = mesh.neighbor_graph(spec.neighborhood)
    x, slot = _pair_arguments(spec, mesh, graph)
    x = x(np.asarray(normals, dtype=float))[slot]
    spatial = spatial_weights(spec, graph, mesh.face_centroids, mesh.face_areas)
    return float(np.sum(spec.range_kernel.rho(x) * spatial))
