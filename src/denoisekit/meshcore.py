"""Triangle mesh container, OBJ/PLY IO and derived quantities.

The mesh stores vertices and faces as numpy arrays and caches per-face
normals, centroids and areas. Every adjacency, the face graph per
:class:`NeighborhoodSpec`, the vertex one-ring and the point graphs of
``pointcloud``, is built on first use by one CSR builder, :func:`csr_graph`.
Three list views remain, each a split of CSR rows: ``neighbor_lists`` and
``face_adjacency_vertex``, which the benchmark's probes call, and
``edge_faces``, which acceptance criterion 5 and the walkthrough demo use.
Face fields are rebuilt explicitly via
:meth:`TriMesh.recompute_face_fields` after vertex edits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree


class MeshError(Exception):
    pass


class ParseError(MeshError):
    pass


class DegenerateFaceError(MeshError):
    pass


class NonManifoldError(MeshError):
    pass


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Which faces count as neighbors of a face.

    mode: "shared_vertex", "shared_edge" or "radius" (centroid Euclidean
    distance <= radius). include_self controls whether the face itself is in
    its own neighborhood.
    """

    mode: str = "shared_vertex"
    radius: float | None = None
    include_self: bool = True

    def __post_init__(self):
        if self.mode not in ("shared_vertex", "shared_edge", "radius"):
            raise ValueError(f"unknown neighborhood mode {self.mode!r}")
        if self.mode == "radius" and self.radius in (None, "auto"):
            raise ValueError("radius mode needs a radius")
        check_positive("radius", self.radius)


class TriMesh:
    def __init__(self, vertices, faces, validate: bool = True):
        self.vertices = np.asarray(vertices, dtype=float).reshape(-1, 3)
        self.faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
        if validate:
            if len(self.faces) and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
                raise MeshError("face index out of range")
            if not np.isfinite(self.vertices).all():
                raise MeshError("non-finite vertex coordinates")
        self._build_topology()
        self.recompute_face_fields(validate=validate)

    # ------------------------------------------------------------------
    # topology (depends on faces only)

    def _build_topology(self):
        """Unique undirected edges, the edge of each half-edge, faces per edge.

        Half-edge ``k * F + f`` is side k (v0v1, v1v2, v2v0) of face f. The
        neighbourhood graphs are derived from these on first use.
        """
        nv = len(self.vertices)
        f = self.faces
        sides = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)
        keys, self._halfedge_edge = np.unique(sides[:, 0] * nv + sides[:, 1],
                                              return_inverse=True)
        self.edges = np.stack([keys // max(nv, 1), keys % max(nv, 1)], axis=1)
        self._edge_face_count = np.bincount(self._halfedge_edge, minlength=len(keys))
        self._graphs = {}

    def neighbor_graph(self, spec: NeighborhoodSpec):
        """The neighbourhoods of all faces as CSR arrays.

        Returns read-only ``(centers, neighbors, starts, counts)``: one entry
        of ``centers``/``neighbors`` per (face, neighbour) pair, in ascending
        face order and ascending neighbour order within a face, so face i's
        neighbours are ``neighbors[starts[i]:starts[i] + counts[i]]``. Built on
        the first request and cached per spec; radius graphs are dropped by
        :meth:`recompute_face_fields`.
        """
        graph = self._graphs.get(spec)
        if graph is None:
            graph = self._graphs[spec] = self._build_graph(spec)
        return graph

    def _build_graph(self, spec: NeighborhoodSpec):
        nf = len(self.faces)
        face = np.arange(nf)
        if spec.mode == "shared_edge":
            keys = _group_pair_keys(self._halfedge_edge, np.tile(face, 3), nf)
        elif spec.mode == "shared_vertex":
            keys = _group_pair_keys(self.faces.ravel(), np.repeat(face, 3), nf)
        else:
            keys = self._radius_pair_keys(spec.radius)
        # key c * F + n encodes the pair (c, n); the self pairs are c * (F + 1),
        # the only keys that F + 1 divides
        keys = _distinct(np.concatenate([keys, face * (nf + 1)]))
        return csr_graph(keys if spec.include_self else keys[keys % (nf + 1) != 0], nf)

    def _radius_pair_keys(self, radius: float) -> np.ndarray:
        """Keys of the face pairs whose centroids lie within ``radius``."""
        nf = len(self.faces)
        c = self.face_centroids
        finite = np.flatnonzero(np.isfinite(c).all(axis=1))  # NaN is near nothing
        if len(finite) < 2:
            return np.zeros(0, dtype=np.int64)
        # the tree may round distances differently: take candidates from a
        # slightly larger ball, then keep those numpy puts within the radius
        pairs = cKDTree(c[finite]).query_pairs(radius * (1.0 + 1e-9), output_type="ndarray")
        i, j = finite[pairs[:, 0]], finite[pairs[:, 1]]
        near = np.linalg.norm(c[j] - c[i], axis=1) <= radius
        i, j = i[near], j[near]
        return np.concatenate([i * nf + j, j * nf + i])

    @cached_property
    def vertex_graph(self):
        """The one-ring of each vertex as read-only CSR arrays, laid out as
        in :meth:`neighbor_graph`."""
        nv = len(self.vertices)
        a, b = self.edges[:, 0], self.edges[:, 1]
        return csr_graph(_distinct(np.concatenate([a * nv + b, b * nv + a])), nv)

    # list views, built on first access

    @cached_property
    def _edge_face_flat(self) -> np.ndarray:
        """Faces on each edge, edge-major and ascending within an edge (CSR
        rows with counts ``_edge_face_count``)."""
        nf = len(self.faces)
        return np.lexsort((np.tile(np.arange(nf), 3), self._halfedge_edge)) % max(nf, 1)

    @cached_property
    def edge_faces(self) -> list[list[int]]:
        """Sorted faces on each edge of ``edges``."""
        flat = self._edge_face_flat.tolist()
        ends = np.cumsum(self._edge_face_count).tolist()
        return [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]

    @cached_property
    def face_adjacency_vertex(self) -> list[np.ndarray]:
        """Sorted faces sharing a vertex with each face (itself excluded)."""
        return self.neighbor_lists(NeighborhoodSpec("shared_vertex", include_self=False))

    # ------------------------------------------------------------------
    # geometry caches (depend on vertices)

    def recompute_face_fields(self, validate: bool = True):
        """Rebuild normals/centroids/areas/edge length after a vertex edit."""
        self._graphs = {s: g for s, g in self._graphs.items() if s.mode != "radius"}
        v = self.vertices
        f = self.faces
        if len(f):
            p0, p1, p2 = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
            cross = np.cross(p1 - p0, p2 - p0)
            double_area = np.linalg.norm(cross, axis=1)
            self.face_areas = 0.5 * double_area
            self.face_centroids = (p0 + p1 + p2) / 3.0
            if len(self.edges):
                d = v[self.edges[:, 0]] - v[self.edges[:, 1]]
                self.avg_edge_length = float(np.mean(np.linalg.norm(d, axis=1)))
            else:
                self.avg_edge_length = 0.0
            if validate:
                bad = np.flatnonzero(self.face_areas < 1e-14 * max(self.avg_edge_length, 1e-300) ** 2)
                if len(bad):
                    raise DegenerateFaceError(f"degenerate faces: {bad.tolist()}")
            with np.errstate(invalid="ignore", divide="ignore"):
                self.face_normals = cross / np.where(double_area > 0, double_area, 1.0)[:, None]
        else:
            self.face_areas = np.zeros(0)
            self.face_centroids = np.zeros((0, 3))
            self.face_normals = np.zeros((0, 3))
            self.avg_edge_length = 0.0

    # ------------------------------------------------------------------
    # queries

    def neighbor_lists(self, spec: NeighborhoodSpec) -> list[np.ndarray]:
        _, neighbors, _, counts = self.neighbor_graph(spec)
        return _split(neighbors, counts)

    def is_edge_manifold(self) -> bool:
        return not np.any(self._edge_face_count > 2)

    def require_edge_manifold(self) -> None:
        """Raise NonManifoldError if an edge has more than two faces."""
        bad = np.flatnonzero(self._edge_face_count > 2)
        if len(bad):
            raise NonManifoldError(f"non-manifold edges: {bad[:10].tolist()}")

    def vertex_mean_curvature(self) -> np.ndarray:
        """Cotangent mean-curvature magnitude per vertex (0 on the boundary)."""
        self.require_edge_manifold()
        nv = len(self.vertices)
        v, f = self.vertices, self.faces
        ring_area = np.bincount(f.ravel(), weights=np.repeat(self.face_areas, 3), minlength=nv)
        boundary = np.zeros(nv, dtype=bool)
        boundary[self.edges[self._edge_face_count < 2].ravel()] = True

        # corner r of a face is (i, j, k) = (f[r], f[r+1], f[r+2]); its
        # cotangent weights the opposite edge (j, k), pulling j toward k and
        # k toward j. Contributions are summed face by face, corner by corner.
        i, j, k = f, np.roll(f, -1, axis=1), np.roll(f, -2, axis=1)
        u, w = v[j] - v[i], v[k] - v[i]
        cot = np.einsum("fcx,fcx->fc", u, w) / np.maximum(
            np.linalg.norm(np.cross(u, w), axis=2), 1e-300)
        pull = cot[:, :, None] * (v[k] - v[j])
        acc = scatter_rows(np.stack([j, k], axis=2).ravel(),
                           np.stack([pull, -pull], axis=2).reshape(-1, 3), nv)
        kappa = np.linalg.norm(acc, axis=1) / np.maximum(4.0 * ring_area / 3.0, 1e-300)
        kappa[boundary] = 0.0
        kappa[ring_area == 0] = 0.0
        return kappa

    def dihedral_feature_edges(self, threshold_degrees: float) -> np.ndarray:
        """Edges whose adjacent-face normal angle >= threshold (interior only)."""
        if not (0.0 <= threshold_degrees <= 180.0):
            raise ValueError(f"feature threshold must be in [0, 180] degrees, "
                             f"got {threshold_degrees}")
        counts = self._edge_face_count
        interior = np.flatnonzero(counts == 2)
        first = (np.cumsum(counts) - counts)[interior]
        n0 = self.face_normals[self._edge_face_flat[first]]
        n1 = self.face_normals[self._edge_face_flat[first + 1]]
        # a NaN normal (from a non-finite vertex) counts as opposite
        dots = np.clip(np.nan_to_num(np.einsum("ij,ij->i", n0, n1), nan=-1.0), -1.0, 1.0)
        return self.edges[interior[np.arccos(dots) >= math.radians(threshold_degrees)]]

    def volume(self) -> float:
        """Signed volume; meaningful for closed orientable meshes."""
        v = self.vertices
        f = self.faces
        if not len(f):
            return 0.0
        return float(np.einsum("ij,ij->i", v[f[:, 0]],
                               np.cross(v[f[:, 1]], v[f[:, 2]])).sum() / 6.0)

    def copy(self) -> "TriMesh":
        return TriMesh(self.vertices.copy(), self.faces.copy(), validate=False)


def csr_graph(keys: np.ndarray, n: int):
    """The read-only CSR arrays ``(centers, neighbors, starts, counts)`` of
    the sorted distinct pair keys ``c * n + j`` of ``n`` centers: center c's
    neighbours are ``neighbors[starts[c]:starts[c] + counts[c]]``."""
    centers, neighbors = np.divmod(keys, max(n, 1))
    counts = np.bincount(centers, minlength=n)
    graph = centers, neighbors, np.cumsum(counts) - counts, counts
    for a in graph:
        a.flags.writeable = False
    return graph


def _group_pair_keys(groups, members, nf: int) -> np.ndarray:
    """Keys ``a * nf + b`` of every ordered pair (a, b) of members that share
    a group, the pairs (a, a) included."""
    order = np.argsort(groups, kind="stable")
    groups, members = groups[order], members[order]
    size = np.bincount(groups)
    first = np.cumsum(size) - size
    rep = size[groups]  # each member pairs with every member of its group
    offset = np.arange(rep.sum()) - np.repeat(np.cumsum(rep) - rep, rep)
    partner = members[np.repeat(first[groups], rep) + offset]
    return np.repeat(members, rep) * nf + partner


def scatter_rows(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """``out[index[p]] += rows[p]`` into ``n`` zero rows, adding in the order
    of p (one ``np.bincount`` per column)."""
    return np.stack([np.bincount(index, weights=rows[:, x], minlength=n)
                     for x in range(rows.shape[1])], axis=1)


def vector_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dots of (m, 3) arrays, each the BLAS dot that ``np.dot`` and
    ``np.linalg.norm`` take for one pair of vectors, so they round alike."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def unit_rows(rows: np.ndarray, fallback: np.ndarray) -> tuple[np.ndarray, int]:
    """``rows`` scaled to unit length, each by the norm ``np.linalg.norm``
    takes for one vector; a row of norm 1e-12 or less is replaced by that row
    of ``fallback``. Returns (unit rows, number replaced)."""
    nrm = np.sqrt(vector_dots(rows, rows))
    ok = nrm > 1e-12
    return (np.where(ok[:, None], rows / np.where(ok, nrm, 1.0)[:, None], fallback),
            int(np.count_nonzero(~ok)))


def weighted_unit_mean(normals, w, centers, neighbors) -> tuple[np.ndarray, int]:
    """Per center, the unit sum of its neighbours' normals under the pair
    weights ``w``; one whose sum vanishes keeps its normal (counted)."""
    return unit_rows(scatter_rows(centers, w[:, None] * normals[neighbors], len(normals)),
                     normals)


def pair_angles(normals, neighbors, starts, counts) -> np.ndarray:
    """The angle between the normals of each pair of a CSR graph. A center's
    dots are one matrix-vector product, batched over the centers with as many
    neighbours, so they round as ``normals[row] @ normals[i]``: arccos near 1
    would turn another rounding of a normal's dot with itself into 1e-8."""
    dots = np.empty(len(neighbors))
    for size in np.unique(counts):
        rows = np.flatnonzero(counts == size)
        pairs = starts[rows, None] + np.arange(size)
        dots[pairs] = (normals[neighbors[pairs]] @ normals[rows, :, None])[:, :, 0]
    return np.arccos(np.clip(dots, -1.0, 1.0))


def mean_positive_distance(d, centers, n: int) -> np.ndarray:
    """Per pair, the mean of the positive pair distances ``d`` of its center
    (one of ``n``), or 1 where the center has none."""
    pos = d > 0
    n_pos = np.bincount(centers[pos], minlength=n)
    total = np.bincount(centers[pos], weights=d[pos], minlength=n)
    return np.where(n_pos > 0, total / np.maximum(n_pos, 1), 1.0)[centers]


def check_positive(name: str, value) -> None:
    """Raise ValueError unless a spec value is None, "auto" or finite and > 0."""
    if value not in (None, "auto") and (isinstance(value, str) or not 0 < value < math.inf):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def parse_key_values(text: str, keys) -> dict:
    """The ``key=value`` lines of a spec text; blank and ``#`` lines are
    skipped, and a key not in ``keys`` is an error."""
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
    return kv


def text_value(text: str, convert=float):
    """A spec-text value: None for "none", "auto" as it is, else convert(text)."""
    return None if text == "none" else text if text == "auto" else convert(text)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array.

    Same as ``np.unique(keys)``, whose hash-based path is far slower on
    large integer arrays than one sort.
    """
    keys = np.sort(keys)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _split(values: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """Consecutive rows of ``values`` with the given lengths."""
    return np.split(values, np.cumsum(counts)[:-1]) if len(counts) else []


def convert_normal_args(value: float, kind: str) -> tuple[float, float, float]:
    """Return (euclidean distance, angle, arccos-dot) from any one of them.

    kind: "distance" (||n_i - n_j|| in [0, 2]), "angle" or "arccos_dot"
    (both radians in [0, pi]). For unit normals angle == arccos-dot.
    """
    if kind == "distance":
        if not (0.0 <= value <= 2.0):
            raise ValueError(f"normal distance must be in [0, 2], got {value}")
        angle = math.acos(min(1.0, max(-1.0, 1.0 - value * value / 2.0)))
    elif kind in ("angle", "arccos_dot"):
        if not (0.0 <= value <= math.pi):
            raise ValueError(f"angle must be in [0, pi], got {value}")
        angle = value
    else:
        raise ValueError(f"unknown representation {kind!r}")
    distance = math.sqrt(max(0.0, 2.0 - 2.0 * math.cos(angle)))
    return distance, angle, angle


# ----------------------------------------------------------------------
# file IO

def load_mesh(path) -> TriMesh:
    """Load an ASCII OBJ (v/f) or ASCII PLY triangle mesh with at least one face."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    mesh = _load_ply(text) if text.lstrip().startswith("ply") else _load_obj(text)
    if not len(mesh.faces):
        raise ParseError("no faces")
    return mesh


def _load_obj(text: str) -> TriMesh:
    vertices = []
    faces = []
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "v":
            if len(parts) < 4:
                raise ParseError(f"line {ln}: vertex with <3 coordinates")
            try:
                vertices.append([float(parts[1]), float(parts[2]), float(parts[3])])
            except ValueError:
                raise ParseError(f"line {ln}: bad vertex coordinate")
        elif tag == "f":
            if len(parts) < 4:
                raise ParseError(f"line {ln}: face with <3 vertices")
            try:
                idx = [int(p.split("/")[0]) for p in parts[1:]]
            except ValueError:
                raise ParseError(f"line {ln}: bad face index")
            idx = [i - 1 if i > 0 else len(vertices) + i for i in idx]
            for a, b in zip(idx[1:-1], idx[2:]):  # fan-triangulate
                faces.append([idx[0], a, b])
        # other records (vn, vt, o, g, s, mtllib, usemtl) are ignored
    return TriMesh(np.array(vertices, dtype=float).reshape(-1, 3),
                   np.array(faces, dtype=np.int64).reshape(-1, 3))


def _load_ply(text: str) -> TriMesh:
    lines = text.splitlines()
    i = 0
    n_vertex = n_face = 0
    vertex_props = []
    in_header = True
    current_element = None
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not in_header:
            break
        if line.startswith("format"):
            if "ascii" not in line:
                raise ParseError("only ASCII PLY is supported")
        elif line.startswith("element vertex"):
            n_vertex = int(line.split()[2])
            current_element = "vertex"
        elif line.startswith("element face"):
            n_face = int(line.split()[2])
            current_element = "face"
        elif line.startswith("property") and current_element == "vertex":
            vertex_props.append(line.split()[-1])
        elif line == "end_header":
            in_header = False
            break
    if in_header:
        raise ParseError("PLY header without end_header")
    body = [ln.strip() for ln in lines[i:] if ln.strip()]
    try:
        xi, yi, zi = (vertex_props.index(p) for p in ("x", "y", "z"))
    except ValueError:
        raise ParseError("PLY vertex element lacks x/y/z properties")
    vertices = []
    for ln in body[:n_vertex]:
        parts = ln.split()
        vertices.append([float(parts[xi]), float(parts[yi]), float(parts[zi])])
    faces = []
    for ln in body[n_vertex:n_vertex + n_face]:
        parts = ln.split()
        cnt = int(parts[0])
        if cnt < 3:
            raise ParseError("face with <3 vertices")
        idx = [int(p) for p in parts[1:1 + cnt]]
        for a, b in zip(idx[1:-1], idx[2:]):
            faces.append([idx[0], a, b])
    if len(vertices) != n_vertex:
        raise ParseError("PLY vertex count mismatch")
    return TriMesh(np.array(vertices, dtype=float).reshape(-1, 3),
                   np.array(faces, dtype=np.int64).reshape(-1, 3))


def save_mesh(mesh: TriMesh, path) -> None:
    """Write ASCII OBJ with 9 significant digits and 1-based faces."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")
