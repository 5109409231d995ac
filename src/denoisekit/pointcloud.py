"""Point-cloud container, spatial queries and PCA normal estimation."""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial import cKDTree


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
        self.tree = cKDTree(self.points) if len(self.points) else None
        if len(self.points):
            lo = self.points.min(axis=0)
            hi = self.points.max(axis=0)
            self.bbox_diagonal = float(np.linalg.norm(hi - lo))
        else:
            self.bbox_diagonal = 0.0

    def __len__(self):
        return len(self.points)

    def knn(self, i: int, k: int) -> np.ndarray:
        """The k nearest points to point i, excluding i itself.

        Sorted by distance, ties broken by ascending index.
        """
        n = len(self.points)
        if not (1 <= k < n):
            raise ValueError(f"k must be in [1, {n - 1}], got {k}")
        d, idx = self.tree.query(self.points[i], k=min(n, k + 1))
        d, idx = np.atleast_1d(d), np.atleast_1d(idx)
        keep = idx != i
        d, idx = d[keep], idx[keep]
        if len(idx) > k:
            d, idx = d[:k], idx[:k]
        # re-query by radius so boundary ties resolve by index, not tree order
        r = d[-1] * (1 + 1e-12) + 1e-300
        cand = np.array([j for j in self.tree.query_ball_point(self.points[i], r) if j != i])
        dc = np.linalg.norm(self.points[cand] - self.points[i], axis=1)
        order = np.lexsort((cand, dc))
        return cand[order][:k].astype(np.int64)

    def radius_neighbors(self, i: int, r: float, include_self: bool = False) -> np.ndarray:
        idx = np.array(sorted(self.tree.query_ball_point(self.points[i], r)), dtype=np.int64)
        if not include_self:
            idx = idx[idx != i]
        return idx

    def with_normals(self, normals) -> "PointCloud":
        return PointCloud(self.points.copy(), normals)


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
    normals = np.empty((n, 3))
    nbrs = []
    for i in range(n):
        idx = cloud.knn(i, k)
        nbrs.append(idx)
        group = np.vstack([pts[i], pts[idx]])
        center = group.mean(axis=0)
        q = group - center
        if np.max(np.linalg.norm(group - group[0], axis=1)) < 1e-12 * max(cloud.bbox_diagonal, 1e-300):
            raise RankDeficientNeighborhood(f"degenerate neighborhood around point {i}")
        cov = q.T @ q
        w, vec = np.linalg.eigh(cov)
        normals[i] = vec[:, 0]

    if orient_to is not None:
        ref = np.asarray(orient_to, dtype=float)
        flip = np.einsum("ij,ij->i", normals, ref) < 0
        normals[flip] *= -1
        return normals

    # symmetric kNN graph with angular-agreement weights
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in nbrs[i]:
            w = 1.0 - abs(float(np.dot(normals[i], normals[j]))) + 1e-12
            rows.append(i)
            cols.append(int(j))
            vals.append(w)
    graph = csr_matrix((vals, (rows, cols)), shape=(n, n))
    graph = graph.maximum(graph.T)
    mst = minimum_spanning_tree(graph)
    mst = mst.maximum(mst.T).tocsr()

    ncomp, labels = connected_components(graph, directed=False)
    visited = np.zeros(n, dtype=bool)
    for comp in range(ncomp):
        members = np.flatnonzero(labels == comp)
        seed = members[np.argmax(pts[members, 2])]
        if normals[seed, 2] < 0:
            normals[seed] *= -1
        stack = [int(seed)]
        visited[seed] = True
        while stack:
            i = stack.pop()
            for j in mst.indices[mst.indptr[i]:mst.indptr[i + 1]]:
                if not visited[j]:
                    if np.dot(normals[i], normals[j]) < 0:
                        normals[j] *= -1
                    visited[j] = True
                    stack.append(int(j))
    return normals


# ----------------------------------------------------------------------
# XYZ text IO: "x y z [nx ny nz]" per line

def load_xyz(path) -> PointCloud:
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
    if nrm and len(nrm) != len(pts):
        raise PointCloudError("some lines carry normals, some do not")
    return PointCloud(np.array(pts).reshape(-1, 3),
                      np.array(nrm).reshape(-1, 3) if nrm else None)


def save_xyz(cloud: PointCloud, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if cloud.normals is None:
            for p in cloud.points:
                fh.write(f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g}\n")
        else:
            for p, nv in zip(cloud.points, cloud.normals):
                fh.write(f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g} "
                         f"{nv[0]:.9g} {nv[1]:.9g} {nv[2]:.9g}\n")

