"""Triangle mesh container, OBJ/PLY IO and derived quantities.

The mesh stores vertices and faces as numpy arrays and caches per-face
normals, centroids and areas. Every adjacency, the face graph per
:class:`NeighborhoodSpec`, the vertex one-ring, the point graphs of
``pointcloud`` per spec and the corner graphs of :func:`index_graph`, is
built by one CSR builder, :func:`csr_graph`, the cached ones on first use.
Three list views remain, each a split of CSR rows: ``neighbor_lists`` and
``face_adjacency_vertex``, which the benchmark's probes call, and
``edge_faces``, which acceptance criterion 5 and the walkthrough demo use.
Face fields are rebuilt explicitly via
:meth:`TriMesh.recompute_face_fields` after vertex edits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np


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
        if self.mode != "radius" and self.radius is not None:
            raise ValueError(f"a {self.mode} neighborhood takes no radius")
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

        Returns the read-only :class:`Graph` ``(centers, neighbors, starts, counts)``:
        one entry of ``centers``/``neighbors`` per (face, neighbour) pair, in
        ascending face order and ascending neighbour order within a face, so face
        i's neighbours are ``neighbors[starts[i]:starts[i] + counts[i]]``. Built on
        the first request and cached per spec, with its slots; radius graphs are
        dropped by :meth:`recompute_face_fields`.
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
            keys = radius_pair_keys(self.face_centroids, spec.radius)
        else:
            raise ValueError(f"a mesh has no {spec.mode} neighbourhood")
        # key c * F + n encodes the pair (c, n); the self pairs are c * (F + 1),
        # the only keys that F + 1 divides
        keys = _distinct(np.concatenate([keys, face * (nf + 1)]))
        return csr_graph(keys if spec.include_self else keys[keys % (nf + 1) != 0], nf, nf)

    @cached_property
    def vertex_graph(self):
        """The one-ring of each vertex as read-only CSR arrays, laid out as
        in :meth:`neighbor_graph`."""
        nv = len(self.vertices)
        a, b = self.edges[:, 0], self.edges[:, 1]
        return csr_graph(_distinct(np.concatenate([a * nv + b, b * nv + a])), nv, nv)

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
        ends = np.stack([j, k], axis=2).ravel()
        acc = np.stack([np.bincount(ends, weights=col, minlength=nv)
                        for col in np.stack([pull, -pull], axis=2).reshape(-1, 3).T], axis=1)
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


class Graph(tuple):
    """The read-only CSR arrays ``(centers, neighbors, starts, counts)`` of :func:`csr_graph`,
    and ``slots``, their :func:`pair_slots`, read-only too, built on first use and kept."""

    @cached_property
    def slots(self):
        return _read_only(pair_slots(self))


def csr_graph(keys: np.ndarray, n: int, width: int) -> Graph:
    """The :class:`Graph` of the sorted distinct pair keys ``c * width + j`` of
    ``n`` centers: center c's neighbours are ``neighbors[starts[c]:starts[c] + counts[c]]``."""
    centers, neighbors = np.divmod(keys, max(width, 1))
    counts = np.bincount(centers, minlength=n)
    return Graph(_read_only((centers, neighbors, np.cumsum(counts) - counts, counts)))


def _read_only(arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def tree_pairs(positions: np.ndarray, radius: float) -> np.ndarray:
    """The (m, 2) pairs i < j in a k-d tree ball a hair wider than ``radius``: the tree may
    round distances differently, so callers keep those with :func:`pair_distances` <= radius."""
    from scipy.spatial import cKDTree  # loaded on first use: no edge or vertex graph needs it
    return cKDTree(positions).query_pairs(radius * (1.0 + 1e-9), output_type="ndarray")


def radius_pair_keys(positions: np.ndarray, radius: float) -> np.ndarray:
    """Keys ``i * n + j`` of the pairs i != j of the n ``positions`` whose
    :func:`pair_distances` is at most ``radius``, each pair both ways round."""
    n = len(positions)
    finite = np.flatnonzero(np.isfinite(positions).all(axis=1))  # NaN is near nothing
    pairs = finite[tree_pairs(positions[finite], radius)]
    i, j = pairs[pair_distances(positions, pairs[:, 1], pairs[:, 0]) <= radius].T
    return np.concatenate([i * n + j, j * n + i])


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
    return csr_graph(np.sort(index * len(index) + np.arange(len(index))), n, len(index))


def graph_sum(graph, n_rows: int):
    """The sum over a CSR graph's pairs, as a function ``(w, rows)`` of
    ``n_rows`` rows giving per center ``sum_p w[p] * rows[neighbors[p]]``, added
    in pair order from zero as by ``np.add.at``: one sparse product, built
    once, whose data each call replaces by the weights (broadcast to the pairs)."""
    from scipy.sparse import csr_matrix  # loaded on first use: only the filters and updates sum
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


def unit_rows(rows: np.ndarray, fallback: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` scaled to unit length, each by the root of its dot with itself
    (bit for bit ``np.linalg.norm(rows, axis=1)``); a row of norm 1e-12 or
    less is replaced by that row of ``fallback``. Returns (unit rows, mask of rows replaced)."""
    with np.errstate(over="ignore"):
        nrm = np.sqrt(pair_dots(rows, ..., ...))
    big = np.isinf(nrm)
    if big.any():  # finite rows whose squares overflow: measure them scaled down
        big &= np.isfinite(rows).all(axis=1)
        rows = rows.copy()
        rows[big] /= np.abs(rows[big]).max(axis=1)[:, None]
        nrm[big] = np.sqrt(pair_dots(rows[big], ..., ...))
    ok = nrm > 1e-12
    return np.where(ok[:, None], rows / np.where(ok, nrm, 1.0)[:, None], fallback), ~ok


def pair_dots(rows, i, j) -> np.ndarray:
    """``rows[i] . rows[j]`` for indices that broadcast: the column products are
    added from zero in column order, so no BLAS kernel rounds them and the dot
    is the same bits both ways round."""
    return sum(col[i] * col[j] for col in rows.T)


def pair_distances(rows, i, j) -> np.ndarray:
    """``np.linalg.norm(rows[i] - rows[j], axis=-1)`` bit for bit, for indices that broadcast:
    the squared column differences are added from zero in column order, as that norm does."""
    return np.sqrt(sum(np.square(col[i] - col[j]) for col in rows.T))


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
    text = read_text(path)
    # the reader returns arrays, so its tokens are freed before the topology
    mesh = TriMesh(*(_load_ply if text.lstrip().startswith("ply") else _load_obj)(text))
    if not len(mesh.faces):
        raise ParseError("no faces")
    return mesh


def read_text(path) -> str:
    """A file's text as UTF-8; a byte that is not UTF-8 reads as U+FFFD, so it
    fails as a bad token of its line rather than as a decode error."""
    with open(path, "rb") as fh:
        return fh.read().decode("utf-8", errors="replace")


class Tokens:
    """The tokens of a text, found on masks of its UTF-8 bytes, one byte each, and
    the line, first token and width of each non-blank line.

    Only the six ASCII whitespace bytes (space, ``\\t``, ``\\v``, ``\\f``, ``\\r``,
    ``\\n``) split tokens, so U+00A0 or U+2028 belongs to its token, and lines end
    at ``\\n``, ``\\r\\n`` or a lone ``\\r``; with ``comments``, a ``#`` blanks the rest
    of its line. Token t is ``bytes[begin[t]:end[t]]``; line i's tokens are
    ``start[i]`` to ``start[i] + width[i]``, and it is line ``lines[i]`` of the text."""

    def __init__(self, text: str, comments: bool = True):
        b = self.bytes = np.frombuffer(text.encode() + b"\n", np.uint8)  # every token ends
        blank = (b == 32) | ((b >= 9) & (b <= 13))
        end = b == 10
        end[:-1] |= (b[:-1] == 13) & ~end[1:]  # a lone CR
        ends = np.flatnonzero(end)
        hashes = np.flatnonzero(b == 35) if comments else []
        if len(hashes):  # from the first # of a line to its end, as a run of +1
            stop = ends[np.searchsorted(ends, hashes)]
            first = np.diff(stop, prepend=-1) > 0
            edge = np.zeros(len(b), np.int8)
            edge[hashes[first]], edge[stop[first]] = 1, -1
            blank |= np.cumsum(edge, dtype=np.int8).view(bool)
        edge = blank.copy()  # where a token begins or ends
        edge[1:] ^= blank[:-1]
        edge[0] = not blank[0]
        bounds = np.flatnonzero(edge)
        self.begin, self.end = bounds[0::2], bounds[1::2]
        count = np.diff(np.searchsorted(self.begin, ends), prepend=0)  # tokens per line
        row = np.flatnonzero(count)
        self.lines, self.width = row + 1, count[row]
        self.start = np.cumsum(self.width) - self.width

    def tag(self, word: bytes) -> np.ndarray:
        """Whether the first token of each line is ``word``."""
        begin = self.begin[self.start]
        hit = self.end[self.start] - begin == len(word)
        for k, c in enumerate(word):
            hit[hit] = self.bytes[begin[hit] + k] == c
        return hit

    def words(self, begin, end) -> list[str]:
        """The tokens ``bytes[begin[t]:end[t]]``, as ``str``."""
        return [self.bytes[b:e].tobytes().decode() for b, e in zip(begin, end)]

    def numbers(self, tok, dtype, what: str, error=ParseError, cut: bool = False) -> np.ndarray:
        """The ascending tokens ``tok`` (with ``cut``, each up to its first ``/``) as
        ``float`` or ``int`` would convert them; a bad one names its line.

        :func:`_from_bytes` reads them; where it cannot, they are converted one
        at a time."""
        begin, end = self.begin[tok], self.end[tok]
        if cut:
            slash = np.append(np.flatnonzero(self.bytes == 47), len(self.bytes))
            end = np.minimum(end, slash[np.searchsorted(slash, begin)])
        values = _from_bytes(self.bytes, begin, end, dtype)
        if values is not None:
            return values
        values = np.empty(len(tok), dtype)
        lines = self.lines[np.searchsorted(self.start, tok, "right") - 1]
        for k, (word, line) in enumerate(zip(self.words(begin, end), lines)):
            try:
                values[k] = dtype(word)
            except (ValueError, OverflowError):
                raise error(f"line {line}: {what}") from None
        return values


def _from_bytes(b: np.ndarray, begin: np.ndarray, end: np.ndarray, dtype):
    """The ascending tokens ``b[begin:end]`` read by one ``np.fromstring``, or None
    where it fails, reads another count of numbers, or may differ from ``float``
    and ``int``: it reads ``nan(1)``, and clamps an int at the int64 limits."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # older numpy only warns on unread data
            values = np.fromstring(_spaced(b, begin, end), dtype, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    odd = (np.isnan(values) if values.dtype.kind == "f" else
           np.isin(values, [np.iinfo(dtype).min, np.iinfo(dtype).max]))
    return values if len(values) == len(begin) and not odd.any() else None


def _spaced(b: np.ndarray, begin: np.ndarray, end: np.ndarray) -> bytes:
    """The ascending tokens ``b[begin:end]``, each followed by one space: a mask
    of runs over the bytes keeps each token and the byte after it, which
    becomes the space."""
    bounds = np.empty(2 * len(begin) + 2, np.intp)
    bounds[0], bounds[1:-1:2], bounds[2:-1:2], bounds[-1] = 0, begin, end + 1, len(b)
    kept = np.zeros(len(bounds) - 1, bool)
    kept[1::2] = True
    out = b[np.repeat(kept, np.diff(bounds))]
    out[np.cumsum(end - begin + 1) - 1] = 32
    return out.tobytes()


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
    t = Tokens(text)
    v, f = t.tag(b"v"), t.tag(b"f")
    fail_at(t.lines[v & (t.width < 4)], "vertex with <3 coordinates")
    fail_at(t.lines[f & (t.width < 4)], "face with <3 vertices")
    xyz = t.numbers((t.start[v, None] + [1, 2, 3]).ravel(), float, "bad vertex coordinate")
    n = t.width[f] - 1
    idx = t.numbers(_runs(t.start[f] + 1, n), np.int64, "bad face index", cut=True)
    fail_at(np.repeat(t.lines[f], n)[idx == 0], "bad face index")
    return xyz, fan(np.where(idx > 0, idx - 1, np.repeat(np.cumsum(v)[f], n) + idx), n)


def _load_ply(text: str):
    """An ASCII PLY's ``vertex`` and ``face`` elements; the body rows go to the
    elements in header order, and the rows of any other element are skipped."""
    t = Tokens(text, comments=False)
    at = np.flatnonzero((t.width == 1) & t.tag(b"end_header"))
    head = at[0] + 1 if len(at) else len(t.lines)  # the header's rows
    elements, props = [], []  # (name, count) in header order; the vertex properties
    for line, s, w in zip(t.lines[:head], t.start, t.width):
        words = t.words(t.begin[s:s + w], t.end[s:s + w])
        if words[0] == "format" and words[1:2] != ["ascii"]:
            raise ParseError("only ASCII PLY is supported")
        if words[0] == "element":
            if len(words) < 3 or not words[2].isdecimal():
                raise ParseError(f"line {line}: element without a name and a count >= 0")
            elements.append((words[1], int(words[2])))
        elif words[0] == "property" and elements and elements[-1][0] == "vertex":
            props.append(words[-1])
    if not len(at):
        raise ParseError("PLY header without end_header")
    if not {"x", "y", "z"} <= set(props):
        raise ParseError("PLY vertex element lacks x/y/z properties")
    body, count = np.arange(head, len(t.lines)), dict(elements)
    sizes = [c for _, c in elements]
    if len(body) < sum(sizes):
        nv, nf = count.get("vertex", 0), count.get("face", 0)
        other = sum(sizes) - nv - nf  # the rows of other elements, and of a repeated one
        declared = f"{nv} vertices, {nf} faces and {other} other rows" if other else \
            f"{nv} vertices and {nf} faces"
        raise ParseError(f"PLY declares {declared} but has {len(body)} rows")
    rows = {name: body[o:o + c] for (name, c), o in zip(elements, np.cumsum(sizes) - sizes)}
    v, f = (rows.get(name, body[:0]) for name in ("vertex", "face"))
    fail_at(t.lines[v][t.width[v] < len(props)], f"vertex row with fewer than {len(props)} values")
    cols = [props.index(p) for p in "xyz"]  # read in file order, then put as x, y, z
    xyz = t.numbers((t.start[v, None] + np.sort(cols)).ravel(), float,
                    "bad vertex coordinate").reshape(-1, 3)[:, np.argsort(np.argsort(cols))]
    n = t.numbers(t.start[f], np.int64, "bad face count")
    fail_at(t.lines[f][(n < 3) | (t.width[f] <= n)],
            "face with <3 vertices or fewer than its count")
    return xyz, fan(t.numbers(_runs(t.start[f] + 1, n), np.int64, "bad face index"), n)


# Rows per formatted write: bounds the text and the Python numbers held at once.
_WRITE_BLOCK = 1 << 10


def write_rows(fh, line: str, rows: np.ndarray) -> None:
    """Write ``line % tuple(row)`` for each row, one formatted write per block of rows."""
    for lo in range(0, len(rows), _WRITE_BLOCK):
        block = rows[lo:lo + _WRITE_BLOCK]
        fh.write(line * len(block) % tuple(block.ravel().tolist()))


def save_mesh(mesh: TriMesh, path) -> None:
    """Write ASCII OBJ with 9 significant digits and 1-based faces."""
    with open(path, "w", encoding="utf-8") as fh:
        write_rows(fh, "v %.9g %.9g %.9g\n", mesh.vertices)
        write_rows(fh, "f %d %d %d\n", mesh.faces + 1)
