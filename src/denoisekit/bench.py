"""Synthetic shapes, seeded noise injection and denoise quality metrics."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .meshcore import NeighborhoodSpec, TriMesh, check_positive
from .pointcloud import PointCloud


# ----------------------------------------------------------------------
# shapes

def _weld(vertices, faces, decimals=9):
    """Merge vertices that coincide up to rounding; reindex faces."""
    v = np.asarray(vertices, dtype=float)
    key = np.round(v, decimals)
    # keep the first original coordinates for each welded vertex
    _, first, inv = np.unique(key, axis=0, return_index=True, return_inverse=True)
    out_v = v[first]
    out_f = inv[np.asarray(faces, dtype=np.int64)]
    return out_v, out_f


def _quads(rows: int, cols: int):
    """Corners (a, b, c, d) of every quad of a row-major rows x cols vertex
    grid, in row-major quad order: a = (j, i), b = (j, i + 1),
    c = (j + 1, i + 1) and d = (j + 1, i)."""
    a = (np.arange(rows - 1)[:, None] * cols + np.arange(cols - 1)).ravel()
    return a, a + 1, a + cols + 1, a + cols


def make_plane(n: int, scale: float = 1.0) -> TriMesh:
    """n x n vertex grid on z=0, diagonal-split quads; 2(n-1)^2 faces."""
    if n < 2:
        raise ValueError("n must be >= 2")
    x, y = np.meshgrid(np.linspace(0.0, scale, n), np.linspace(0.0, scale, n))
    a, b, c, d = _quads(n, n)
    return TriMesh(np.stack([x.ravel(), y.ravel(), np.zeros(n * n)], axis=1),
                   np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3))


def _grid_face(origin, eu, ev, n, scale):
    """One cube face as an (n-1)x(n-1) quad grid, each quad center-split."""
    origin = np.asarray(origin, dtype=float) * scale
    eu = np.asarray(eu, dtype=float) * scale
    ev = np.asarray(ev, dtype=float) * scale
    ts = np.linspace(0.0, 1.0, n)
    mid = 0.5 * (ts[:-1] + ts[1:])
    # the n x n grid vertices, then one center per quad
    grid, centers = np.meshgrid(ts, ts), np.meshgrid(mid, mid)
    u, v = (np.concatenate([g.ravel(), h.ravel()])[:, None] for g, h in zip(grid, centers))
    a, b, c, d = _quads(n, n)
    ctr = n * n + np.arange(len(a))
    faces = np.stack([a, b, ctr, b, c, ctr, c, d, ctr, d, a, ctr], axis=1)
    return origin + u * eu + v * ev, faces.reshape(-1, 3)


def make_cube(n: int, scale: float = 1.0) -> TriMesh:
    """Axis-aligned solid cube [0, scale]^3; n vertices per edge, each quad
    split into 4 triangles about its center. 24(n-1)^2 faces, outward normals."""
    if n < 2:
        raise ValueError("n must be >= 2")
    # (origin, eu, ev) chosen so eu x ev points outward
    specs = [
        ([0, 0, 0], [0, 1, 0], [1, 0, 0]),  # z=0, normal -z
        ([0, 0, 1], [1, 0, 0], [0, 1, 0]),  # z=1, normal +z
        ([0, 0, 0], [1, 0, 0], [0, 0, 1]),  # y=0, normal -y
        ([0, 1, 0], [0, 0, 1], [1, 0, 0]),  # y=1, normal +y
        ([0, 0, 0], [0, 0, 1], [0, 1, 0]),  # x=0, normal -x
        ([1, 0, 0], [0, 1, 0], [0, 0, 1]),  # x=1, normal +x
    ]
    verts, faces = zip(*(_grid_face(origin, eu, ev, n, scale) for origin, eu, ev in specs))
    offsets = np.arange(6) * len(verts[0])  # every side has as many vertices
    v, f = _weld(np.vstack(verts), np.vstack([f + k for f, k in zip(faces, offsets)]))
    return TriMesh(v, f)


def make_icosphere(level: int, scale: float = 1.0) -> TriMesh:
    """Unit icosahedron subdivided ``level`` times, projected to the sphere."""
    if level < 0:
        raise ValueError("level must be >= 0")
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ])
    for _ in range(level):
        a, b, c = faces.T
        ends = np.sort(np.stack([a, b, b, c, c, a], axis=1).reshape(-1, 2), axis=1)
        _, first, inv = np.unique(ends[:, 0] * len(verts) + ends[:, 1],
                                  return_index=True, return_inverse=True)
        # new vertices are numbered in the order their edges first occur
        e = ends[np.sort(first)]
        m = (verts[e[:, 0]] + verts[e[:, 1]]) / 2.0
        ab, bc, ca = (len(verts) + np.argsort(np.argsort(first))[inv]).reshape(-1, 3).T
        verts = np.vstack([verts, m / np.linalg.norm(m, axis=1)[:, None]])
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return TriMesh(verts * scale, faces)


def make_wedge(scale: float = 1.0, n: int = 4) -> TriMesh:
    """A house-shaped prism (box with a gabled top): flat patches meeting at
    sharp edges of several dihedral angles, a desk-scale CAD stand-in."""
    if n < 2:
        raise ValueError("n must be >= 2")
    # cross-section in the (x, z) plane, extruded along y
    profile = np.array([
        [0.0, 0.0], [1.0, 0.0], [1.0, 0.6], [0.5, 1.0], [0.0, 0.6],
    ]) * scale
    m = len(profile)
    ys = np.linspace(0.0, 1.2 * scale, n)
    x, z = np.tile(profile, (n, 1)).T
    # side walls between consecutive profile edges, quads split by diagonal;
    # grid column m is profile vertex 0 again
    ring = (np.arange(n)[:, None] * m + np.arange(m + 1) % m).ravel()
    a, b, c, d = (ring[q] for q in _quads(n, m + 1))
    # end caps, fans around the profile polygon: y = 0 (-y out), y = 1.2 scale (+y out)
    i = np.arange(1, m - 1)
    top = (n - 1) * m
    caps = np.stack([0 * i, i, i + 1, top + 0 * i, top + i + 1, top + i], axis=1)
    walls = np.stack([a, c, b, a, d, c], axis=1)
    return TriMesh(np.stack([x, np.repeat(ys, m), z], axis=1),
                   np.concatenate([walls.ravel(), caps.ravel()]))


# a builder per shape kind, from (n, scale); "fandisk-like" is the wedge
SHAPES = {
    "cube": make_cube,
    "plane": make_plane,
    "icosphere": make_icosphere,
    "wedge": lambda n, scale: make_wedge(scale, n),
    "fandisk-like": lambda n, scale: make_wedge(scale, n),
}
SHAPE_KINDS = tuple(SHAPES)


def make_shape(kind: str, n: int = 4, scale: float = 1.0) -> TriMesh:
    check_positive("scale", scale)
    if kind in SHAPES:
        return SHAPES[kind](n, scale)
    raise ValueError(f"unknown shape {kind!r}; valid: {SHAPE_KINDS}")


# ----------------------------------------------------------------------
# noise

def _noise_displacements(n: int, sigma: float, seed: int) -> np.ndarray:
    """Counter-based deterministic noise: magnitude ~ N(0, sigma^2) along a
    uniformly random unit direction, per vertex."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    dirs = rng.normal(size=(n, 3))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1), 1e-300)[:, None]
    mags = rng.normal(0.0, 1.0, size=n) * sigma
    return mags[:, None] * dirs


def add_noise(obj, sigma_factor: float, seed: int):
    """Return a noisy copy; amplitude is sigma_factor times the average edge
    length (meshes) or the mean nearest-neighbor spacing (clouds)."""
    if not 0 <= sigma_factor < math.inf:
        raise ValueError(f"sigma_factor must be finite and >= 0, got {sigma_factor}")
    if isinstance(obj, TriMesh):
        sigma = sigma_factor * obj.avg_edge_length
        disp = _noise_displacements(len(obj.vertices), sigma, seed) if sigma_factor else 0.0
        return TriMesh(obj.vertices + disp, obj.faces.copy(), validate=False)
    if isinstance(obj, PointCloud):
        if len(obj) > 1 and sigma_factor:
            centers, neighbors, _, _ = obj.neighbor_graph(NeighborhoodSpec("knn", k=1))
            gap = obj.points[neighbors[centers != neighbors]] - obj.points
            sigma = sigma_factor * float(np.linalg.norm(gap, axis=1).mean())
            disp = _noise_displacements(len(obj), sigma, seed)
        else:
            disp = 0.0
        return PointCloud(obj.points + disp,
                          None if obj.normals is None else obj.normals.copy())
    raise TypeError(f"cannot add noise to {type(obj).__name__}")


# ----------------------------------------------------------------------
# metrics

@dataclass
class MetricsReport:
    mean_angular_error_deg: float
    max_angular_error_deg: float
    mean_vertex_distance: float
    volume_before: float
    volume_after: float
    relative_volume_change: float
    feature_edge_count: int
    warnings: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    CSV_FIELDS = ("mean_angular_error_deg", "max_angular_error_deg",
                  "mean_vertex_distance", "volume_before", "volume_after",
                  "relative_volume_change", "feature_edge_count")

    def to_csv_row(self) -> str:
        vals = [getattr(self, f) for f in self.CSV_FIELDS]
        return ",".join(f"{v:.10g}" if isinstance(v, float) else str(v) for v in vals)


def angular_errors_deg(gt_normals, cand_normals) -> np.ndarray:
    a = np.asarray(gt_normals, dtype=float)
    b = np.asarray(cand_normals, dtype=float)
    dots = np.clip(np.einsum("ij,ij->i", a, b), -1.0, 1.0)
    return np.degrees(np.arccos(dots))


def compare(ground_truth, candidate, feature_threshold_deg: float = 70.0,
            warnings=None) -> MetricsReport:
    """Quality metrics of a candidate against its ground truth.

    Meshes must share connectivity; clouds must share cardinality.
    """
    if {type(ground_truth), type(candidate)} not in ({TriMesh}, {PointCloud}):
        raise ValueError("ground truth and candidate must be both meshes or both point clouds")
    if isinstance(ground_truth, TriMesh):
        if ground_truth.faces.shape != candidate.faces.shape or \
                np.any(ground_truth.faces != candidate.faces):
            raise ValueError("meshes must share connectivity")
        errs = angular_errors_deg(ground_truth.face_normals, candidate.face_normals)
        vdist = np.linalg.norm(ground_truth.vertices - candidate.vertices, axis=1)
        vb, va = ground_truth.volume(), candidate.volume()
        features = len(candidate.dihedral_feature_edges(feature_threshold_deg))
    else:
        if len(ground_truth) != len(candidate):
            raise ValueError("clouds must share cardinality")
        if ground_truth.normals is not None and candidate.normals is not None:
            errs = angular_errors_deg(ground_truth.normals, candidate.normals)
        else:
            errs = np.zeros(0)
        vdist = np.linalg.norm(ground_truth.points - candidate.points, axis=1)
        vb = va = 0.0  # a cloud has no volume
        features = 0
    return MetricsReport(
        mean_angular_error_deg=float(errs.mean()) if len(errs) else 0.0,
        max_angular_error_deg=float(errs.max()) if len(errs) else 0.0,
        mean_vertex_distance=float(vdist.mean()) if len(vdist) else 0.0,
        volume_before=vb,
        volume_after=va,
        relative_volume_change=(va - vb) / vb if vb else 0.0,
        feature_edge_count=features,
        warnings=dict(warnings or {}),
    )
