"""Point-cloud container, spatial queries and PCA normal estimation."""

from __future__ import annotations

import numpy as np

from .meshcore import (NeighborhoodSpec, Tokens, csr_graph, fail_at, pair_distances,
                       pair_dots, radius_pair_keys, read_text, write_rows)


class PointCloudError(Exception):
    pass


class RankDeficientNeighborhood(PointCloudError):
    pass


class PointCloud:
    def __init__(self, points, normals=None):
        self.points = np.asarray(points, dtype=float).reshape(-1, 3)
        if not np.isfinite(self.points).all():
            raise PointCloudError("non-finite point coordinates")
        if normals is not None:
            normals = np.asarray(normals, dtype=float).reshape(-1, 3)
            if len(normals) != len(self.points):
                raise PointCloudError("normals/points cardinality mismatch")
            if not np.isfinite(normals).all():
                raise PointCloudError("non-finite normals")
            norms = np.linalg.norm(normals, axis=1)
            if len(normals) and np.any(np.abs(norms - 1.0) > 1e-9):
                normals = normals / np.where(norms > 0, norms, 1.0)[:, None]
        self.normals = normals
        extent = np.ptp(self.points, axis=0) if len(self.points) else np.zeros(3)
        self.bbox_diagonal = float(np.linalg.norm(extent, axis=0))
        self._graphs = {}

    def __len__(self):
        return len(self.points)

    def neighbor_graph(self, spec: NeighborhoodSpec):
        """The kNN graph (by numpy's distance, ties to the lowest index) or radius graph
        (numpy's distance <= radius) of ``spec``, each point in its own neighbourhood, as
        the cached CSR arrays of :meth:`TriMesh.neighbor_graph`; other modes or k >= n raise."""
        graph = self._graphs.get(spec)
        if graph is None:
            n = len(self.points)
            if spec.mode not in ("knn", "radius") or not spec.include_self:
                raise ValueError("a point graph needs a knn or radius neighborhood "
                                 "that includes the point itself")
            if spec.mode == "knn" and spec.k >= n:
                raise ValueError(f"k must be in [1, {n - 1}], got {spec.k}")
            # key c * n + j encodes the pair (c, j); the self pairs are c * (n + 1)
            if spec.mode == "knn":
                keys = np.sort(self._knn(spec.k), axis=1) + (np.arange(n) * n)[:, None]
            else:
                keys = np.sort(np.concatenate([radius_pair_keys(self.points, spec.radius),
                                               np.arange(n) * (n + 1)]))
            graph = self._graphs[spec] = csr_graph(keys.ravel(), n, n)
        return graph

    def _knn(self, k: int) -> np.ndarray:
        """(n, k + 1): each point and its k nearest. Only rows where the next
        one lies within a hair of the k-th rank the whole ball (at most n)."""
        from scipy.spatial import cKDTree  # loaded on first use, as by the radius graphs
        tree = cKDTree(self.points)
        dist, rows = tree.query(self.points, k=k + 2)
        reach = dist[:, k] * (1 + 1e-12) + 1e-300
        tie = np.flatnonzero(dist[:, k + 1] <= reach)
        if len(tie):
            ball = tree.query_ball_point(self.points[tie], reach[tie], return_length=True)
            cand = tree.query(self.points[tie], k=ball.max())[1]
            d = pair_distances(self.points, cand, tie[:, None])
            d[cand == tie[:, None]] = -1.0  # the point itself first
            rows[tie, :k + 1] = np.take_along_axis(cand, np.lexsort((cand, d))[:, :k + 1], axis=1)
        return rows[:, :k + 1]

    def with_normals(self, normals) -> "PointCloud":
        """A copy with other normals that shares the cached graphs."""
        clone = PointCloud(self.points.copy(), normals)
        clone._graphs = self._graphs
        return clone


def estimate_normals_pca(cloud: PointCloud, k: int,
                         orient_to: np.ndarray | None = None) -> np.ndarray:
    """PCA normals from k-neighborhoods with MST-consistent orientation.

    The normal at each point is the smallest-eigenvalue eigenvector of the
    covariance of the point plus its k nearest neighbors. Orientation is
    propagated along a minimum spanning tree of the kNN graph weighted by
    1 - |n_i . n_j|, seeded per connected component at the maximal-z point
    (the lowest index on ties) oriented toward +z, in one depth-first walk of the
    forest. ``orient_to`` instead flips each normal toward the given reference
    directions (benchmark use). A k of n or more is taken as n - 1.

    The covariances and ``eigh`` are BLAS and LAPACK calls, so this is the
    one stage whose last bits may depend on the BLAS kernel the process
    picks; the orientation's dots are ``pair_dots``.
    """
    n = len(cloud)
    if n < 4:
        raise ValueError(f"PCA normals need at least 4 points, got {n}")
    if k < 3:
        raise ValueError("k must be >= 3")
    k = min(k, n - 1)  # as the point filters clamp theirs
    pts = cloud.points
    centers, neighbors, _, _ = cloud.neighbor_graph(NeighborhoodSpec("knn", k=k))
    rows = neighbors.reshape(n, k + 1)
    d = pair_distances(pts, rows, np.arange(n)[:, None])
    flat = np.flatnonzero(d.max(axis=1) < 1e-12 * max(cloud.bbox_diagonal, 1e-300))
    if len(flat):
        raise RankDeficientNeighborhood(f"degenerate neighborhood around point {flat[0]}")
    # nearest first, as the loop summed them (points at distance 0 are equal)
    group = pts[np.take_along_axis(rows, np.lexsort((rows, d)), axis=1)]
    group -= group.mean(axis=1)[:, None]
    normals = np.linalg.eigh(group.transpose(0, 2, 1) @ group)[1][:, :, 0].copy()

    if orient_to is not None:
        ref = np.asarray(orient_to, dtype=float)
        flip = np.einsum("ij,ij->i", normals, ref) < 0
        normals[flip] *= -1
        return normals

    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components, depth_first_order, minimum_spanning_tree

    # symmetric kNN graph with angular-agreement weights
    other = centers != neighbors
    rows, cols = centers[other], neighbors[other]
    vals = 1.0 - np.abs(pair_dots(normals, rows, cols)) + 1e-12
    graph = csr_matrix((vals, (rows, cols)), shape=(n, n))
    graph = graph.maximum(graph.T)

    # one walk from a virtual node n joined to each component's seed. A point's sign is its
    # tree parent's times their dot's, or +1 where the dot is 0 or the parent is n (a root
    # of its own); pointer doubling multiplies the relative signs up to the roots
    ncomp, labels = connected_components(graph, directed=False)
    by_height = np.lexsort((-pts[:, 2], labels))
    seeds = by_height[np.searchsorted(labels[by_height], np.arange(ncomp))]
    normals[seeds[normals[seeds, 2] < 0]] *= -1
    forest = minimum_spanning_tree(graph)
    forest.resize(n + 1, n + 1)
    forest += csr_matrix((np.ones(ncomp), (np.full(ncomp, n), seeds)), shape=forest.shape)
    order, parent = depth_first_order(forest, n, directed=False)
    kids = order[1:][parent[order[1:]] < n]
    d = pair_dots(normals, parent[kids], kids)
    anc, sign = np.arange(n), np.ones(n)
    anc[kids] = np.where(d == 0, kids, parent[kids])
    sign[kids] = np.where(d < 0, -1.0, 1.0)
    up = anc[anc]
    while not np.array_equal(up, anc):  # O(log depth) steps
        sign *= sign[anc]
        anc, up = up, up[up]
    normals *= sign[:, None]
    return normals


# ----------------------------------------------------------------------
# XYZ text IO: "x y z [nx ny nz]" per line

def load_xyz(path) -> PointCloud:
    """Load an ``.xyz`` file with at least one point. Column counts are checked
    before numbers: of several bad lines, the first may not be named."""
    t = Tokens(read_text(path))
    fail_at(t.lines[(t.width != 3) & (t.width != 6)], "expected 3 or 6 columns", PointCloudError)
    if not len(t.lines):
        raise PointCloudError("no points")
    if t.width.min() != t.width.max():
        raise PointCloudError("some lines carry normals, some do not")
    values = t.numbers(np.arange(len(t.begin)), float, "bad coordinate",
                       PointCloudError).reshape(len(t.lines), -1)
    return PointCloud(values[:, :3].copy(), values[:, 3:].copy() if t.width[0] == 6 else None)


def save_xyz(cloud: PointCloud, path) -> None:
    """Write "x y z [nx ny nz]" lines with 9 significant digits through
    :func:`write_rows`, the bytes of ``np.savetxt(path, rows, fmt="%.9g")``."""
    rows = cloud.points if cloud.normals is None else np.hstack([cloud.points, cloud.normals])
    with open(path, "w", encoding="utf-8") as fh:
        write_rows(fh, " ".join(["%.9g"] * rows.shape[1]) + "\n", rows)

