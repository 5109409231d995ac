"""Point-cloud container, spatial queries and PCA normal estimation."""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, depth_first_order, minimum_spanning_tree
from scipy.spatial import cKDTree

from .meshcore import csr_graph, vector_dots


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
        self.bbox_diagonal = float(np.linalg.norm(extent))
        self._graphs = {}

    def __len__(self):
        return len(self.points)

    def neighbor_graph(self, k: int | None = None, radius: float | None = None):
        """Each point with its k nearest others (by numpy's distance, ties to
        the lowest index) or with all points within ``radius``, as the cached
        read-only CSR arrays ``(centers, neighbors, starts, counts)`` of
        :meth:`TriMesh.neighbor_graph`, in ascending point and neighbour order."""
        if (k is None) == (radius is None):
            raise ValueError("give exactly one of k and radius")
        key = ("k", k) if radius is None else ("radius", radius)
        graph = self._graphs.get(key)
        if graph is None:
            n, tree = len(self.points), cKDTree(self.points)
            # key c * n + j encodes the pair (c, j); the self pairs are c * (n + 1)
            if radius is None:
                if not (1 <= k < n):
                    raise ValueError(f"k must be in [1, {n - 1}], got {k}")
                keys = (np.sort(self._knn(tree, k), axis=1) + (np.arange(n) * n)[:, None]).ravel()
            else:
                i, j = tree.query_pairs(radius, output_type="ndarray").T
                keys = np.sort(np.concatenate([i * n + j, j * n + i, np.arange(n) * (n + 1)]))
            graph = self._graphs[key] = csr_graph(keys, n)
        return graph

    def _knn(self, tree: cKDTree, k: int) -> np.ndarray:
        """(n, k + 1): each point and its k nearest. Only rows where the next
        one lies within a hair of the k-th rank the whole ball (at most n)."""
        dist, rows = tree.query(self.points, k=k + 2)
        reach = dist[:, k] * (1 + 1e-12) + 1e-300
        tie = np.flatnonzero(dist[:, k + 1] <= reach)
        if len(tie):
            ball = tree.query_ball_point(self.points[tie], reach[tie], return_length=True)
            cand = tree.query(self.points[tie], k=ball.max())[1]
            d = np.linalg.norm(self.points[cand] - self.points[tie, None], axis=2)
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
    oriented toward +z. ``orient_to`` instead flips each normal toward the
    given reference directions (benchmark use).
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    n = len(cloud)
    pts = cloud.points
    centers, neighbors, _, _ = cloud.neighbor_graph(k=k)
    rows = neighbors.reshape(n, k + 1)
    d = np.linalg.norm(pts[rows] - pts[:, None], axis=2)
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

    # symmetric kNN graph with angular-agreement weights
    other = centers != neighbors
    rows, cols = centers[other], neighbors[other]
    vals = 1.0 - np.abs(vector_dots(normals[rows], normals[cols])) + 1e-12
    graph = csr_matrix((vals, (rows, cols)), shape=(n, n))
    graph = graph.maximum(graph.T)
    mst = minimum_spanning_tree(graph)

    # a point's sign follows its tree parent's, so flip in depth-first order
    ncomp, labels = connected_components(graph, directed=False)
    for comp in range(ncomp):
        members = np.flatnonzero(labels == comp)
        seed = members[np.argmax(pts[members, 2])]
        if normals[seed, 2] < 0:
            normals[seed] *= -1
        order, parent = depth_first_order(mst, seed, directed=False)
        for j in order[1:]:
            if np.dot(normals[parent[j]], normals[j]) < 0:
                normals[j] *= -1
    return normals


# ----------------------------------------------------------------------
# XYZ text IO: "x y z [nx ny nz]" per line

def load_xyz(path) -> PointCloud:
    """Load an ``.xyz`` file with at least one point."""
    pts, nrm = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (3, 6):
                raise PointCloudError(f"line {ln}: expected 3 or 6 columns")
            vals = [float(p) for p in parts]
            pts.append(vals[:3])
            if len(vals) == 6:
                nrm.append(vals[3:])
    if not pts:
        raise PointCloudError("no points")
    if nrm and len(nrm) != len(pts):
        raise PointCloudError("some lines carry normals, some do not")
    return PointCloud(np.array(pts).reshape(-1, 3),
                      np.array(nrm).reshape(-1, 3) if nrm else None)


def save_xyz(cloud: PointCloud, path) -> None:
    columns = [cloud.points] if cloud.normals is None else [cloud.points, cloud.normals]
    np.savetxt(path, np.hstack(columns), fmt="%.9g")

