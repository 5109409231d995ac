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
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.sparse import csr_matrix
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
    """Which faces (or points) count as neighbors of a face (or point).

    mode: "shared_vertex", "shared_edge", "radius" (centroid or point
    Euclidean distance <= radius) or "knn" (a point and its k nearest
    points). include_self controls whether the face itself is in its own
    neighborhood.
    """

    mode: str = "shared_vertex"
    radius: float | None = None
    include_self: bool = True
    k: int | None = None

    def __post_init__(self):
        if self.mode not in ("shared_vertex", "shared_edge", "radius", "knn"):
            raise ValueError(f"unknown neighborhood mode {self.mode!r}")
        if self.mode == "radius" and self.radius in (None, "auto"):
            raise ValueError("radius mode needs a radius")
        check_positive("radius", self.radius)
        if (self.mode == "knn") != (self.k is not None) or (self.k is not None and self.k < 1):
            raise ValueError(f"k must be >= 1 in knn mode and unset otherwise, got {self.k!r}")


class TriMesh:
    def __init__(self, vertices, faces, validate: bool = True):
        self.vertices = np.asarray(vertices, dtype=float).reshape(-1, 3)
        self.faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
        if validate:
            if not ((self.faces >= 0) & (self.faces < len(self.vertices))).all():
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
        elif spec.mode == "radius":
            keys = self._radius_pair_keys(spec.radius)
        else:
            raise ValueError(f"a mesh has no {spec.mode} neighbourhood")
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
        near = pair_distances(c, j, i) <= radius
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
        return [r.tolist() for r in _split(self._edge_face_flat, self._edge_face_count)]

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
            edge_lengths = pair_distances(v, *self.edges.T)  # faces have edges
            self.avg_edge_length = float(np.mean(edge_lengths))
            if validate:
                bad = np.flatnonzero(self.face_areas <= 1e-14 * self.avg_edge_length ** 2)
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
        acc = graph_sum(index_graph(np.stack([j, k], axis=2).ravel(), nv), 6 * len(f))(
            1.0, np.stack([pull, -pull], axis=2).reshape(-1, 3))
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
        return float(np.einsum("ij,ij->i", v[f[:, 0]],
                               np.cross(v[f[:, 1]], v[f[:, 2]])).sum() / 6.0)


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
    return np.repeat(members, rep) * nf + members[_runs(first[groups], rep)]


def index_graph(index: np.ndarray, n: int):
    """The CSR graph of ``n`` centers in which center c holds the positions p
    with ``index[p] == c``, ascending: one sort of the distinct keys
    ``index[p] * len(index) + p``, which is faster than a stable argsort."""
    order = np.sort(index * len(index) + np.arange(len(index))) % max(len(index), 1)
    counts = np.bincount(index, minlength=n)
    return index[order], order, np.cumsum(counts) - counts, counts


def graph_sum(graph, n_rows: int):
    """The sum over a CSR graph's pairs, as a function ``(w, rows)`` of
    ``n_rows`` rows giving per center ``sum_p w[p] * rows[neighbors[p]]``, added
    in pair order from zero as by ``np.add.at``: one sparse product, built
    once, whose data each call replaces by the weights (broadcast to the pairs)."""
    _, neighbors, starts, counts = graph
    op = csr_matrix((np.zeros(len(neighbors)), neighbors, np.append(starts, len(neighbors))),
                    shape=(len(counts), n_rows))

    def total(w, rows):
        op.data = np.ascontiguousarray(np.broadcast_to(w, neighbors.shape), dtype=float)
        return op @ rows
    return total


def pair_slots(graph):
    """``(slot, i, j)``: one slot per distinct unordered pair of a CSR graph,
    pair p being slot ``slot[p]``'s pair ``(i, j)`` or its reverse. The pairs
    (c, n) with c <= n take the first slots, in the order of their keys
    ``c * N + n``; one with c > n takes its mirror's slot, found by one search
    of those keys, or a slot of its own if it has none (a one-way kNN pair)."""
    centers, neighbors, _, counts = graph
    ahead = centers <= neighbors
    keys = centers[ahead] * len(counts) + neighbors[ahead]
    back = np.flatnonzero(~ahead)
    mirror = neighbors[back] * len(counts) + centers[back]
    at = np.searchsorted(keys, mirror)
    lone = np.append(keys, -1)[at] != mirror
    slot = np.empty(len(neighbors), dtype=np.intp)
    slot[ahead] = np.arange(len(keys))
    slot[back] = np.where(lone, len(keys) + np.cumsum(lone) - 1, at)
    first = np.concatenate([np.flatnonzero(ahead), back[lone]])  # the pair of each slot
    return slot, centers[first], neighbors[first]


def vector_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dots of (m, 3) arrays, each the BLAS dot that ``np.dot`` and
    ``np.linalg.norm`` take for one pair of vectors, so they round alike."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def unit_rows(rows: np.ndarray, fallback: np.ndarray) -> tuple[np.ndarray, int]:
    """``rows`` scaled to unit length, each by the norm ``np.linalg.norm``
    takes for one vector; a row of norm 1e-12 or less is replaced by that row
    of ``fallback``. Returns (unit rows, number replaced)."""
    with np.errstate(over="ignore"):
        nrm = np.sqrt(vector_dots(rows, rows))
    big = np.isinf(nrm)
    if big.any():  # finite rows whose squares overflow: measure them scaled down
        big &= np.isfinite(rows).all(axis=1)
        rows = rows.copy()
        rows[big] /= np.abs(rows[big]).max(axis=1)[:, None]
        nrm[big] = np.sqrt(vector_dots(rows[big], rows[big]))
    ok = nrm > 1e-12
    return (np.where(ok[:, None], rows / np.where(ok, nrm, 1.0)[:, None], fallback),
            int(np.count_nonzero(~ok)))


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


def pair_distances(rows, i, j) -> np.ndarray:
    """``np.linalg.norm(rows[i] - rows[j], axis=-1)`` bit for bit, for indices that broadcast:
    the squared column differences are added from zero in column order, as that norm does."""
    return np.sqrt(sum(np.square(col[i] - col[j]) for col in rows.T))


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


# ----------------------------------------------------------------------
# file IO

def load_mesh(path) -> TriMesh:
    """Load an ASCII OBJ (v/f) or ASCII PLY triangle mesh with at least one face."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    # the reader returns arrays, so its tokens are freed before the topology
    mesh = TriMesh(*(_load_ply if text.lstrip().startswith("ply") else _load_obj)(text))
    if not len(mesh.faces):
        raise ParseError("no faces")
    return mesh


def token_table(rows: list[list[str]]):
    """All tokens of ``rows`` and the line, first token and width of each non-blank row."""
    width = np.fromiter(map(len, rows), np.int64, len(rows))
    tokens = np.fromiter(chain.from_iterable(rows), object, int(width.sum()))
    row = np.flatnonzero(width)
    return tokens, row + 1, (np.cumsum(width) - width)[row], width[row]


def parse_numbers(tokens, lines, dtype, what: str, error=ParseError) -> np.ndarray:
    """``tokens`` as ``float`` or ``int`` would convert them; a bad one names its line."""
    try:
        return np.array(tokens, dtype=dtype)
    except (ValueError, OverflowError):
        for token, line in zip(tokens, lines):  # only on error: find the first bad one
            try:
                np.array(token, dtype=dtype)
            except (ValueError, OverflowError):
                raise error(f"line {line}: {what}") from None
        raise


def fail_at(lines, what: str, error=ParseError) -> None:
    """Raise ``error`` naming the first of ``lines``, if there is one."""
    if len(lines):
        raise error(f"line {lines[0]}: {what}")


def _runs(first, counts) -> np.ndarray:
    """The ranges ``first[i] + range(counts[i])``, concatenated."""
    return np.arange(np.sum(counts)) + np.repeat(first - np.cumsum(counts) + counts, counts)


def fan(corners, counts) -> np.ndarray:
    """Fan triangles ``(c_0, c_k, c_k+1)`` of polygons stored as runs of corners."""
    first = np.cumsum(counts) - counts
    k = _runs(first + 1, counts - 2)
    return corners[np.stack([np.repeat(first, counts - 2), k, k + 1], axis=1)]


def _load_obj(text: str):
    """``v`` and ``f`` records (others are ignored); a corner ``a``, ``a/b``,
    ``a//c`` or ``a/b/c`` is vertex a, 1-based, or counted back if a < 0. Widths
    are checked before numbers: of several bad lines, the first may not be named."""
    tokens, lines, start, width = token_table([s.split("#", 1)[0].split()
                                               for s in text.splitlines()])
    v, f = (tokens[start] == tag for tag in ("v", "f"))
    fail_at(lines[v & (width < 4)], "vertex with <3 coordinates")
    fail_at(lines[f & (width < 4)], "face with <3 vertices")
    xyz = parse_numbers(tokens[start[v, None] + [1, 2, 3]].ravel(), np.repeat(lines[v], 3),
                        float, "bad vertex coordinate")
    n = width[f] - 1
    at = np.repeat(lines[f], n)  # the line of each corner
    # keep each corner's vertex index: "a/b/c" -> "a", while "/b" stays bad
    corners = re.sub(r"(?<=[^ /])/\S*", "", " ".join(tokens[_runs(start[f] + 1, n)]))
    idx = parse_numbers(corners.split(), at, np.int64, "bad face index")
    fail_at(at[idx == 0], "bad face index")
    return xyz, fan(np.where(idx > 0, idx - 1, np.searchsorted(lines[v], at) + idx), n)


def _load_ply(text: str):
    rows = [s.split() for s in text.splitlines()]
    end = rows.index(["end_header"]) + 1 if ["end_header"] in rows else None
    count, props, element = {"vertex": 0, "face": 0}, [], None
    for line, words in enumerate(rows[:end], start=1):
        if words[:1] == ["format"] and words[1:2] != ["ascii"]:
            raise ParseError("only ASCII PLY is supported")
        if words[:1] == ["element"]:
            if len(words) < 3 or not words[2].isdecimal():
                raise ParseError(f"line {line}: element without a name and a count >= 0")
            element, count[words[1]] = words[1], int(words[2])
        elif words[:1] == ["property"] and element == "vertex":
            props.append(words[-1])
    if end is None:
        raise ParseError("PLY header without end_header")
    if not {"x", "y", "z"} <= set(props):
        raise ParseError("PLY vertex element lacks x/y/z properties")
    tokens, lines, start, width = token_table(rows)
    body, nv, nf = np.flatnonzero(lines > end), count["vertex"], count["face"]
    if len(body) < nv + nf:
        raise ParseError(f"PLY declares {nv} vertices and {nf} faces but has {len(body)} rows")
    v, f = body[:nv], body[nv:nv + nf]
    fail_at(lines[v][width[v] < len(props)], f"vertex row with fewer than {len(props)} values")
    xyz = parse_numbers(tokens[start[v, None] + [props.index(p) for p in "xyz"]].ravel(),
                        np.repeat(lines[v], 3), float, "bad vertex coordinate")
    n = parse_numbers(tokens[start[f]], lines[f], np.int64, "bad face count")
    fail_at(lines[f][(n < 3) | (width[f] <= n)], "face with <3 vertices or fewer than its count")
    return xyz, fan(parse_numbers(tokens[_runs(start[f] + 1, n)], np.repeat(lines[f], n),
                                  np.int64, "bad face index"), n)


def save_mesh(mesh: TriMesh, path) -> None:
    """Write ASCII OBJ with 9 significant digits and 1-based faces."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("v %.9g %.9g %.9g\n" * len(mesh.vertices) % tuple(mesh.vertices.ravel().tolist()))
        fh.write("f %d %d %d\n" * len(mesh.faces) % tuple((mesh.faces + 1).ravel().tolist()))
