"""Face-normal filtering: the generic unilateral/bilateral engine and the
per-method presets, vector medians, gradient-descent filtering and the
underlying energy.

All filters are double-buffered: pass t reads only the normals of pass t-1.
Per-face accumulation runs in ascending face-index order, so results do not
depend on the order in which neighbors were discovered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .kernels import Kernel
from .meshcore import NeighborhoodSpec, TriMesh, scatter_rows

METHODS = (
    "generic_unilateral",
    "generic_bilateral",
    "belyaev_ohtake",
    "yagou_mean",
    "yagou_median",
    "yagou_weighted_median",
    "yadav_box_2017",
    "shen_fuzzy_median",
    "tasdizen",
    "centin_signoroni",
    "zheng_bilateral",
    "zhang_guided",
    "yadav_tukey_2018",
    "gradient_descent",
)

ARGUMENTS = (
    "euclidean",          # ||n_i - n_j||
    "angle",              # angle between n_i and n_j, radians
    "angle_per_distance", # angle / centroid distance
    "curvature_edge",     # face curvature * global average edge length
    "guidance",           # ||G_i - G_j|| of guidance normals
)

# method -> (pinned kernel kind or None, pinned argument, bilateral?)
_PRESET = {
    "generic_unilateral": (None, None, False),
    "generic_bilateral": (None, None, True),
    "belyaev_ohtake": ("gaussian", "angle_per_distance", False),
    "yagou_mean": ("l2", "euclidean", False),
    "yagou_median": ("l1", "euclidean", False),
    "yagou_weighted_median": ("truncated_l1", "euclidean", False),
    "yadav_box_2017": ("box", "angle", False),
    "shen_fuzzy_median": ("gaussian", "euclidean", False),
    "tasdizen": ("gaussian", "angle", False),
    "centin_signoroni": ("centin_rational", "curvature_edge", False),
    "zheng_bilateral": ("gaussian", "euclidean", True),
    "zhang_guided": ("gaussian", "guidance", True),
    "yadav_tukey_2018": ("tukey", "euclidean", True),
    "gradient_descent": (None, "euclidean", False),
}


@dataclass(frozen=True)
class FilterSpec:
    method: str
    range_kernel: Kernel
    neighborhood: NeighborhoodSpec = NeighborhoodSpec("shared_vertex", include_self=True)
    spatial_sigma: float | str | None = None  # number, "auto", or None (unilateral)
    sigma_d_global: bool = False              # "auto" as global mean instead of per-face
    iterations: int = 1
    step_lambda: float = 1.0                  # gradient_descent only
    argument: str = "euclidean"
    guidance_threshold: float = math.radians(60.0)  # zhang_guided only

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; valid: {METHODS}")
        if self.argument not in ARGUMENTS:
            raise ValueError(f"unknown argument {self.argument!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not (0.0 < self.step_lambda <= 1.0):
            raise ValueError("step_lambda must be in (0, 1]")
        kind, arg, bilateral = _PRESET[self.method]
        if kind is not None and self.range_kernel.kind != kind:
            raise ValueError(f"method {self.method} requires a {kind} kernel, "
                             f"got {self.range_kernel.kind}")
        if self.method == "yadav_box_2017" and abs(self.range_kernel.box_floor - 0.1) > 1e-15:
            raise ValueError("yadav_box_2017 requires box_floor = 0.1")
        if arg is not None and self.argument != arg:
            raise ValueError(f"method {self.method} uses argument {arg!r}")
        if bilateral and self.spatial_sigma is None:
            raise ValueError(f"method {self.method} is bilateral: set spatial_sigma")
        if self.method == "gradient_descent" and not self.range_kernel.differentiable:
            raise ValueError("gradient_descent needs a differentiable kernel")
        if not (0.0 < self.guidance_threshold < math.pi):
            raise ValueError("guidance_threshold must be in (0, pi)")

    @classmethod
    def preset(cls, method: str, sigma: float = 0.35, **kw) -> "FilterSpec":
        """Build a spec with the method's pinned kernel/argument filled in."""
        kind, arg, bilateral = _PRESET[method]
        if kind is None:
            kernel = kw.pop("range_kernel", Kernel("gaussian", sigma))
        else:
            floor = 0.1 if method == "yadav_box_2017" else 0.0
            kernel = Kernel(kind, sigma, box_floor=floor)
        kw.setdefault("argument", arg or "euclidean")
        if bilateral:
            kw.setdefault("spatial_sigma", "auto")
        return cls(method=method, range_kernel=kernel, **kw)

    # ---- flat key=value serialization -------------------------------
    def to_text(self) -> str:
        nb = self.neighborhood
        lines = {
            "method": self.method,
            "kernel": self.range_kernel.kind,
            "sigma": repr(self.range_kernel.sigma),
            "box_floor": repr(self.range_kernel.box_floor),
            "sigma_d": "none" if self.spatial_sigma is None else str(self.spatial_sigma),
            "sigma_d_global": str(self.sigma_d_global).lower(),
            "neighborhood": nb.mode,
            "radius": "none" if nb.radius is None else repr(nb.radius),
            "include_self": str(nb.include_self).lower(),
            "iterations": str(self.iterations),
            "lambda": repr(self.step_lambda),
            "argument": self.argument,
            "guidance_threshold_deg": repr(math.degrees(self.guidance_threshold)),
        }
        return "".join(f"{k}={v}\n" for k, v in lines.items())

    @classmethod
    def from_text(cls, text: str) -> "FilterSpec":
        kv = {}
        for ln, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"line {ln}: expected key=value")
            k, v = line.split("=", 1)
            kv[k.strip()] = v.strip()
        kernel = Kernel(kv["kernel"], float(kv["sigma"]),
                        box_floor=float(kv.get("box_floor", 0.0)))
        sd = kv.get("sigma_d", "none")
        spatial = None if sd == "none" else ("auto" if sd == "auto" else float(sd))
        radius = kv.get("radius", "none")
        nb = NeighborhoodSpec(kv.get("neighborhood", "shared_vertex"),
                              None if radius == "none" else float(radius),
                              kv.get("include_self", "true") == "true")
        return cls(
            method=kv["method"],
            range_kernel=kernel,
            neighborhood=nb,
            spatial_sigma=spatial,
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
    """Replace NaN weights by the max finite weight in the same neighborhood.

    A neighborhood with no finite weight at all (every argument was zero,
    i.e. all normals coincide) falls back to uniform weights.
    """
    nan = np.isnan(w)
    if not nan.any():
        return w
    seg_max = np.full(len(counts), -np.inf)
    nonempty = counts > 0
    seg_max[nonempty] = np.maximum.reduceat(np.where(nan, -np.inf, w), starts[nonempty])
    fill = seg_max[centers]
    return np.where(nan, np.where(np.isfinite(fill), fill, 1.0), w)


def _pair_arguments(spec, mesh, prev, centers, flat, kappa_face=None, guidance=None):
    """Per-pair filter argument x_ij for the flattened neighbor structure."""
    if spec.argument == "euclidean":
        return np.linalg.norm(prev[centers] - prev[flat], axis=1)
    if spec.argument == "angle":
        dots = np.clip(np.einsum("ij,ij->i", prev[centers], prev[flat]), -1.0, 1.0)
        return np.arccos(dots)
    if spec.argument == "angle_per_distance":
        dots = np.clip(np.einsum("ij,ij->i", prev[centers], prev[flat]), -1.0, 1.0)
        ang = np.arccos(dots)
        d = np.linalg.norm(mesh.face_centroids[centers] - mesh.face_centroids[flat], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(d > 0, ang / np.where(d > 0, d, 1.0), 0.0)
        return x
    if spec.argument == "curvature_edge":
        return kappa_face[flat] * mesh.avg_edge_length
    if spec.argument == "guidance":
        return np.linalg.norm(guidance[centers] - guidance[flat], axis=1)
    raise AssertionError(spec.argument)


def _spatial_weights(spec, mesh, centers, flat):
    """Spatial factor f(d_ij); ones for unilateral methods.

    It depends only on the vertices, which stay put while normals are
    filtered, so it is computed once per filter call.
    """
    if spec.method == "yagou_mean":
        return mesh.face_areas[flat]
    if spec.spatial_sigma is None:
        return np.ones(len(flat))
    d = np.linalg.norm(mesh.face_centroids[centers] - mesh.face_centroids[flat], axis=1)
    if spec.spatial_sigma == "auto":
        pos = d > 0
        if spec.sigma_d_global:
            sd = d[pos].mean() if pos.any() else 1.0
        else:
            # per face: the mean of its positive centroid distances
            nf = len(mesh.faces)
            n_pos = np.bincount(centers[pos], minlength=nf)
            total = np.bincount(centers[pos], weights=d[pos], minlength=nf)
            sd = np.where(n_pos > 0, total / np.maximum(n_pos, 1), 1.0)[centers]
    else:
        sd = float(spec.spatial_sigma)
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
    centers, flat = centers[near], flat[near]
    acc = scatter_rows(centers, mesh.face_areas[flat, None] * prev[flat], len(prev))
    nrm = np.linalg.norm(acc, axis=1)
    ok = nrm > 1e-12
    return np.where(ok[:, None], acc / np.where(ok, nrm, 1.0)[:, None], prev)


# ----------------------------------------------------------------------
# the filters

def filter_normals(mesh: TriMesh, spec: FilterSpec, initial=None) -> NormalField:
    """Run spec.iterations weighted-averaging passes over the face normals."""
    if spec.method == "gradient_descent":
        return filter_gradient_descent(mesh, spec, initial=initial)
    prev = np.array(mesh.face_normals if initial is None else initial, dtype=float)
    centers, flat, starts, counts = mesh.neighbor_graph(spec.neighborhood)
    warnings = 0

    kappa_face = None
    if spec.argument == "curvature_edge":
        kv = mesh.vertex_mean_curvature()
        kappa_face = kv[mesh.faces].mean(axis=1)

    median = spec.method in ("yagou_median", "yagou_weighted_median", "shen_fuzzy_median")
    if not median:
        spatial = _spatial_weights(spec, mesh, centers, flat)
    for _ in range(spec.iterations):
        if median:
            new, w_count = _median_pass(spec, prev, flat, starts, counts)
            warnings += w_count
        else:
            guidance = None
            if spec.argument == "guidance":
                guidance = guidance_normals(mesh, spec.neighborhood,
                                            spec.guidance_threshold, normals=prev)
            x = _pair_arguments(spec, mesh, prev, centers, flat,
                                kappa_face=kappa_face, guidance=guidance)
            w = spec.range_kernel.weight(x)
            w = _substitute_nan(w, centers, starts, counts) * spatial
            acc = scatter_rows(centers, w[:, None] * prev[flat], len(prev))
            nrm = np.linalg.norm(acc, axis=1)
            ok = nrm > 1e-12
            warnings += int(np.count_nonzero(~ok))
            new = np.where(ok[:, None], acc / np.where(ok, nrm, 1.0)[:, None], prev)
        prev = new
    return NormalField(prev, iterations=spec.iterations, zero_weight_warnings=warnings)


# Entries of one (m, k, k) array in the median pass: 512 KiB, so a batch
# stays in cache and its memory does not grow with the square of a large
# (radius) neighbourhood.
_MEDIAN_BLOCK = 1 << 16


def _median_pass(spec, prev, neighbors, starts, counts):
    """One pass of the median-flavored presets, in batches of faces that
    have the same neighbourhood size. A face with no neighbour keeps its
    normal and counts as a warning, as in the averaging engine."""
    new = prev.copy()
    warnings = int(np.count_nonzero(counts == 0))
    for k in np.unique(counts[counts > 0]):
        group = np.flatnonzero(counts == k)
        for rows in np.array_split(group, math.ceil(len(group) * k * k / _MEDIAN_BLOCK)):
            cand = prev[neighbors[starts[rows, None] + np.arange(k)]]
            new[rows], count = _median_batch(spec, prev[rows], cand)
            warnings += count
    return new, warnings


def _median_batch(spec, own, cand):
    """New normals of m faces with normals ``own`` (m, 3) and neighbourhood
    normals ``cand`` (m, k, 3), and the number of faces that kept their own
    because the fuzzy median's weighted sum vanished."""
    pick = np.arange(len(cand))
    if spec.method == "shen_fuzzy_median":
        nvd = cand[pick, _directional_median_index(cand)]
        w = spec.range_kernel.weight(np.linalg.norm(cand - nvd[:, None], axis=2))
        acc = (w[:, :, None] * cand).sum(axis=1)
        # the BLAS dot that np.linalg.norm takes for one vector: the
        # directional median's arccos near 1 would amplify a last-bit
        # difference on the next pass
        nrm = np.sqrt(acc[:, None, :] @ acc[:, :, None])[:, 0, 0]
        ok = nrm > 1e-12
        out = np.where(ok[:, None], acc / np.where(ok, nrm, 1.0)[:, None], own)
        return out, int(np.count_nonzero(~ok))
    w = None
    if spec.method == "yagou_weighted_median":
        w = spec.range_kernel.weight(np.linalg.norm(own[:, None] - cand, axis=2))
        top = np.where(np.isfinite(w), w, -np.inf).max(axis=1)
        fill = np.where(np.isfinite(top), top, 1.0)  # no finite weight: uniform
        w = np.where(np.isnan(w), fill[:, None], w)
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
        new = prev + spec.step_lambda * step
        nrm = np.linalg.norm(new, axis=1)
        ok = nrm > 1e-12
        prev = np.where(ok[:, None], new / np.where(ok, nrm, 1.0)[:, None], prev)
    return NormalField(prev, iterations=spec.iterations)


def energy(mesh: TriMesh, normals, spec: FilterSpec) -> float:
    """The robust energy of a normal field under the spec's kernel/weights."""
    prev = np.asarray(normals, dtype=float)
    centers, flat, _, _ = mesh.neighbor_graph(spec.neighborhood)
    kappa_face = None
    if spec.argument == "curvature_edge":
        kv = mesh.vertex_mean_curvature()
        kappa_face = kv[mesh.faces].mean(axis=1)
    guidance = None
    if spec.argument == "guidance":
        guidance = guidance_normals(mesh, spec.neighborhood,
                                    spec.guidance_threshold, normals=prev)
    x = _pair_arguments(spec, mesh, prev, centers, flat,
                        kappa_face=kappa_face, guidance=guidance)
    f = _spatial_weights(spec, mesh, centers, flat)
    return float(np.sum(spec.range_kernel.rho(x) * f))
