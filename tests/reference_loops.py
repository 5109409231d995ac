"""Per-element loop implementations that the vectorised library is checked
against: mesh topology, neighbourhoods, curvature, dihedral feature edges,
guidance normals, the filter engine with per-pass spatial weights, the
vector medians and the median pass, the vertex update and its
orthogonality residual, the neighbourhood
sum (``np.add.at``), Laplacian smoothing, the vertex weld and the synthetic
shapes; for point clouds the kNN and
radius queries, PCA normals, the five point filters, the position update and
the noise spacing; and the OBJ, ASCII PLY and XYZ readers, one line at a
time.

This is the straightforward face-by-face (point-by-point) form of each
computation. It is slow and kept only as a reference for the differential
tests. Only the kernels run the same way in both and are imported from the
library; the readers build the library's mesh and cloud containers.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree
from scipy.spatial import cKDTree

from denoisekit.kernels import Kernel
from denoisekit.meshcore import NonManifoldError, ParseError, TriMesh
from denoisekit.pointcloud import PointCloud, PointCloudError, RankDeficientNeighborhood


def build_topology(faces, n_vertices) -> dict:
    """Edges, edge faces, vertex rings and face adjacencies."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    nf, nv = len(faces), n_vertices
    if nf:
        e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
        edges, inv = np.unique(np.sort(e, axis=1), axis=0, return_inverse=True)
        edge_faces = [[] for _ in range(len(edges))]
        for he, f in zip(inv, np.tile(np.arange(nf), 3)):
            edge_faces[he].append(int(f))
        edge_faces = [sorted(fs) for fs in edge_faces]
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
        edge_faces = []

    vf = [[] for _ in range(nv)]
    for f, (a, b, c) in enumerate(faces):
        vf[a].append(f)
        vf[b].append(f)
        vf[c].append(f)

    vv = [set() for _ in range(nv)]
    for a, b in edges:
        vv[a].add(int(b))
        vv[b].add(int(a))
    vertex_ring = [np.array(sorted(s), dtype=np.int64) for s in vv]

    adj_edge = [set() for _ in range(nf)]
    for fs in edge_faces:
        for i in fs:
            for j in fs:
                if i != j:
                    adj_edge[i].add(j)
    adj_vert = [set() for _ in range(nf)]
    for f, (a, b, c) in enumerate(faces):
        for v in (a, b, c):
            adj_vert[f].update(int(g) for g in vf[v])
        adj_vert[f].discard(f)
    return {
        "edges": edges,
        "edge_faces": edge_faces,
        "vertex_ring": vertex_ring,
        "face_adjacency_edge": [np.array(sorted(s), dtype=np.int64) for s in adj_edge],
        "face_adjacency_vertex": [np.array(sorted(s), dtype=np.int64) for s in adj_vert],
    }


def neighbor_lists(mesh, spec) -> list[np.ndarray]:
    """Sorted neighbours of every face, one face at a time."""
    topo = build_topology(mesh.faces, len(mesh.vertices))
    out = []
    for i in range(len(mesh.faces)):
        if spec.mode == "shared_edge":
            nbrs = topo["face_adjacency_edge"][i]
        elif spec.mode == "shared_vertex":
            nbrs = topo["face_adjacency_vertex"][i]
        else:
            d = np.linalg.norm(mesh.face_centroids - mesh.face_centroids[i], axis=1)
            nbrs = np.flatnonzero(d <= spec.radius)
            nbrs = nbrs[nbrs != i]
        if spec.include_self:
            nbrs = np.sort(np.append(nbrs, i))
        out.append(np.asarray(nbrs, dtype=np.int64))
    return out


def vertex_mean_curvature(mesh) -> np.ndarray:
    topo = build_topology(mesh.faces, len(mesh.vertices))
    bad = [i for i, fs in enumerate(topo["edge_faces"]) if len(fs) > 2]
    if bad:
        raise NonManifoldError(f"non-manifold edges: {bad[:10]}")
    nv = len(mesh.vertices)
    acc = np.zeros((nv, 3))
    ring_area = np.zeros(nv)
    boundary = np.zeros(nv, dtype=bool)
    for e, fs in zip(topo["edges"], topo["edge_faces"]):
        if len(fs) < 2:
            boundary[e[0]] = boundary[e[1]] = True
    v = mesh.vertices
    for f, (a, b, c) in enumerate(mesh.faces):
        ring_area[[a, b, c]] += mesh.face_areas[f]
        for (i, j, k) in ((a, b, c), (b, c, a), (c, a, b)):
            u = v[j] - v[i]
            w = v[k] - v[i]
            cot = np.dot(u, w) / max(np.linalg.norm(np.cross(u, w)), 1e-300)
            acc[j] += cot * (v[k] - v[j])
            acc[k] += cot * (v[j] - v[k])
    kappa = np.linalg.norm(acc, axis=1) / np.maximum(4.0 * ring_area / 3.0, 1e-300)
    kappa[boundary] = 0.0
    kappa[ring_area == 0] = 0.0
    return kappa


def dihedral_feature_edges(mesh, threshold_degrees) -> np.ndarray:
    topo = build_topology(mesh.faces, len(mesh.vertices))
    out = []
    thr = math.radians(threshold_degrees)
    for e, fs in zip(topo["edges"], topo["edge_faces"]):
        if len(fs) == 2:
            n0, n1 = mesh.face_normals[fs[0]], mesh.face_normals[fs[1]]
            ang = math.acos(min(1.0, max(-1.0, float(np.dot(n0, n1)))))
            if ang >= thr:
                out.append(e)
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def guidance_normals(mesh, neighborhood, angle_threshold, normals=None) -> np.ndarray:
    prev = mesh.face_normals if normals is None else np.asarray(normals, dtype=float)
    nbr = neighbor_lists(mesh, replace(neighborhood, include_self=True))
    cos_thr = math.cos(angle_threshold)
    out = np.empty_like(prev)
    for i, idx in enumerate(nbr):
        dots = np.clip(prev[idx] @ prev[i], -1.0, 1.0)
        sel = idx[dots > cos_thr]
        acc = (mesh.face_areas[sel, None] * prev[sel]).sum(axis=0)
        nrm = np.linalg.norm(acc)
        out[i] = acc / nrm if nrm > 1e-12 else prev[i]
    return out


def vector_median(normals, weights=None):
    """(vector, index) of the member minimising the (weighted) sum of
    Euclidean distances; ties go to the lowest position."""
    normals = np.asarray(normals, dtype=float)
    diff = normals[:, None, :] - normals[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    if weights is not None:
        dist = dist * np.asarray(weights, dtype=float)[None, :]
    idx = int(np.argmin(dist.sum(axis=1)))
    return normals[idx], idx


def vector_directional_median(normals):
    """(vector, index) of the member minimising the sum of angles."""
    normals = np.asarray(normals, dtype=float)
    dots = np.clip(normals @ normals.T, -1.0, 1.0)
    idx = int(np.argmin(np.arccos(dots).sum(axis=1)))
    return normals[idx], idx


def median_pass(spec, prev, nbr):
    """One pass of the median presets, face by face. A face with no
    neighbour keeps its normal and counts as a warning."""
    new = np.empty_like(prev)
    warnings = 0
    for i, idx in enumerate(nbr):
        cand = prev[idx]
        if len(idx) == 0:
            new[i] = prev[i]
            warnings += 1
        elif spec.method == "yagou_median":
            new[i], _ = vector_median(cand)
        elif spec.method == "yagou_weighted_median":
            x = np.linalg.norm(prev[i] - cand, axis=1)
            w = spec.range_kernel.weight(x)
            finite = w[np.isfinite(w)]
            w = np.where(np.isnan(w), finite.max() if len(finite) else 1.0, w)
            new[i], _ = vector_median(cand, weights=w)
        else:  # shen_fuzzy_median
            nvd, _ = vector_directional_median(cand)
            x = np.linalg.norm(cand - nvd, axis=1)
            w = spec.range_kernel.weight(x)
            acc = (w[:, None] * cand).sum(axis=0)
            nrm = np.linalg.norm(acc)
            if nrm > 1e-12:
                new[i] = acc / nrm
            else:
                new[i] = prev[i]
                warnings += 1
    return new, warnings


def median_filter(mesh, spec):
    """(normals, warnings) after spec.iterations median passes."""
    prev = np.array(mesh.face_normals, dtype=float)
    nbr = neighbor_lists(mesh, spec.neighborhood)
    warnings = 0
    for _ in range(spec.iterations):
        prev, count = median_pass(spec, prev, nbr)
        warnings += count
    return prev, warnings


def _flat_neighbors(nbr_lists):
    centers = np.concatenate([np.full(len(nb), i, dtype=np.int64)
                              for i, nb in enumerate(nbr_lists)])
    flat = np.concatenate(nbr_lists)
    counts = np.array([len(nb) for nb in nbr_lists], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return centers, flat, starts, counts


def _pair_arguments(spec, mesh, prev, centers, flat, kappa_face=None, guidance=None):
    """Per-pair filter argument x_ij for the flattened neighbor structure."""
    if spec.argument == "euclidean":
        return np.linalg.norm(prev[centers] - prev[flat], axis=1)
    if spec.argument in ("angle", "angle_per_distance"):
        ang = np.empty(len(flat))
        for i in range(len(prev)):  # a face's dots as one product, like the point filters
            pairs = np.flatnonzero(centers == i)
            ang[pairs] = np.arccos(np.clip(prev[flat[pairs]] @ prev[i], -1.0, 1.0))
        if spec.argument == "angle":
            return ang
        d = np.linalg.norm(mesh.face_centroids[centers] - mesh.face_centroids[flat], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(d > 0, ang / np.where(d > 0, d, 1.0), 0.0)
    if spec.argument == "curvature_edge":
        return kappa_face[flat] * mesh.avg_edge_length
    if spec.argument == "guidance":
        return np.linalg.norm(guidance[centers] - guidance[flat], axis=1)
    raise AssertionError(spec.argument)


def _substitute_nan(w, starts, counts):
    if not np.any(np.isnan(w)):
        return w
    w = w.copy()
    neg = np.where(np.isnan(w), -np.inf, w)
    for s, c in zip(starts, counts):
        if c == 0:
            continue
        seg = w[s:s + c]
        mask = np.isnan(seg)
        if mask.any():
            m = np.max(neg[s:s + c])
            seg[mask] = m if np.isfinite(m) else 1.0
    return w


def spatial_weights(spec, mesh, centers, flat, starts, counts):
    if spec.method == "yagou_mean":
        return mesh.face_areas[flat]
    if spec.spatial_sigma is None:
        return np.ones(len(flat))
    d = np.linalg.norm(mesh.face_centroids[centers] - mesh.face_centroids[flat], axis=1)
    if spec.spatial_sigma == "auto":
        sd = np.empty(len(flat))
        for s, c in zip(starts, counts):
            seg = d[s:s + c]
            pos = seg[seg > 0]
            sd[s:s + c] = pos.mean() if len(pos) else 1.0
    else:
        sd = np.full(len(flat), float(spec.spatial_sigma))
    return np.exp(-(d * d) / (2.0 * sd * sd))


def filter_normals(mesh, spec) -> np.ndarray:
    """Filtered normals, recomputing the spatial weights on every pass."""
    if spec.method in ("yagou_median", "yagou_weighted_median", "shen_fuzzy_median"):
        return median_filter(mesh, spec)[0]
    prev = np.array(mesh.face_normals, dtype=float)
    centers, flat, starts, counts = _flat_neighbors(neighbor_lists(mesh, spec.neighborhood))
    if spec.method == "gradient_descent":
        for _ in range(spec.iterations):
            diff = prev[flat] - prev[centers]
            x = np.linalg.norm(diff, axis=1)
            g = spec.range_kernel.weight(x)
            contrib = np.where((x > 0)[:, None], g[:, None] * diff, 0.0)
            step = np.zeros_like(prev)
            np.add.at(step, centers, contrib)
            new = prev + spec.step_lambda * step
            nrm = np.linalg.norm(new, axis=1)
            ok = nrm > 1e-12
            prev = np.where(ok[:, None], new / np.where(ok, nrm, 1.0)[:, None], prev)
        return prev
    kappa_face = None
    if spec.argument == "curvature_edge":
        kappa_face = vertex_mean_curvature(mesh)[mesh.faces].mean(axis=1)
    for _ in range(spec.iterations):
        guidance = None
        if spec.argument == "guidance":
            guidance = guidance_normals(mesh, spec.neighborhood,
                                        spec.guidance_threshold, normals=prev)
        x = _pair_arguments(spec, mesh, prev, centers, flat,
                            kappa_face=kappa_face, guidance=guidance)
        w = _substitute_nan(spec.range_kernel.weight(x), starts, counts)
        w = w * spatial_weights(spec, mesh, centers, flat, starts, counts)
        acc = np.zeros_like(prev)
        np.add.at(acc, centers, w[:, None] * prev[flat])
        nrm = np.linalg.norm(acc, axis=1)
        ok = nrm > 1e-12
        prev = np.where(ok[:, None], acc / np.where(ok, nrm, 1.0)[:, None], prev)
    return prev


def energy(mesh, normals, spec) -> float:
    prev = np.asarray(normals, dtype=float)
    centers, flat, starts, counts = _flat_neighbors(neighbor_lists(mesh, spec.neighborhood))
    kappa_face = None
    if spec.argument == "curvature_edge":
        kappa_face = vertex_mean_curvature(mesh)[mesh.faces].mean(axis=1)
    guidance = None
    if spec.argument == "guidance":
        guidance = guidance_normals(mesh, spec.neighborhood, spec.guidance_threshold,
                                    normals=prev)
    x = _pair_arguments(spec, mesh, prev, centers, flat,
                        kappa_face=kappa_face, guidance=guidance)
    f = spatial_weights(spec, mesh, centers, flat, starts, counts)
    return float(np.sum(spec.range_kernel.rho(x) * f))


def update_vertices(mesh, filtered_normals, iterations, step=1.0) -> np.ndarray:
    n = np.asarray(filtered_normals, dtype=float)
    v = mesh.vertices.copy()
    faces = mesh.faces
    deg = np.zeros(len(v))
    np.add.at(deg, faces.ravel(), 1.0)
    for _ in range(iterations):
        centroids = (v[faces[:, 0]] + v[faces[:, 1]] + v[faces[:, 2]]) / 3.0
        disp = np.zeros_like(v)
        for corner in range(3):
            vid = faces[:, corner]
            offset = np.einsum("ij,ij->i", n, centroids - v[vid])
            np.add.at(disp, vid, offset[:, None] * n)
        with np.errstate(invalid="ignore"):
            v = v + step * disp / np.maximum(deg, 1.0)[:, None]
    return v


def orthogonality_residual(vertices, faces, normals) -> float:
    """Squared normal offsets of the corners from their face centroids,
    summed corner by corner."""
    v = np.asarray(vertices, dtype=float)
    n = np.asarray(normals, dtype=float)
    centroids = (v[faces[:, 0]] + v[faces[:, 1]] + v[faces[:, 2]]) / 3.0
    total = 0.0
    for corner in range(3):
        offset = np.einsum("ij,ij->i", n, centroids - v[faces[:, corner]])
        total += float(np.sum(offset * offset))
    return total


def scatter_sum(index, w, rows, n) -> np.ndarray:
    """``out[index[p]] += w[p] * rows[p]`` into ``n`` zero rows, in the order of p."""
    out = np.zeros((n, rows.shape[1]))
    np.add.at(out, index, w[:, None] * rows)
    return out


def laplacian_smooth(mesh, iterations, lam) -> np.ndarray:
    """Umbrella smoothing, one vertex at a time."""
    v = mesh.vertices.copy()
    rings = build_topology(mesh.faces, len(v))["vertex_ring"]
    for _ in range(iterations):
        new = v.copy()
        for i, ring in enumerate(rings):
            if len(ring):
                new[i] = v[i] + lam * (v[ring].mean(axis=0) - v[i])
        v = new
    return v


def weld(vertices, faces, decimals=9):
    v = np.asarray(vertices, dtype=float)
    uniq, inv = np.unique(np.round(v, decimals), axis=0, return_inverse=True)
    first = np.full(len(uniq), -1, dtype=np.int64)
    for i, g in enumerate(inv):
        if first[g] < 0:
            first[g] = i
    return v[first], inv[np.asarray(faces, dtype=np.int64)]


# ----------------------------------------------------------------------
# synthetic shapes: one quad (or face, or edge midpoint) at a time; each
# returns the (vertices, faces) arrays of the library's builder

def make_plane(n, scale=1.0):
    xs = np.linspace(0.0, scale, n)
    vv = np.array([[x, y, 0.0] for y in xs for x in xs])
    faces = []
    for j in range(n - 1):
        for i in range(n - 1):
            a = j * n + i
            b = a + 1
            c = a + n
            d = c + 1
            faces.append([a, b, d])
            faces.append([a, d, c])
    return vv, np.array(faces)


def grid_face(origin, eu, ev, n, scale):
    origin = np.asarray(origin, dtype=float) * scale
    eu = np.asarray(eu, dtype=float) * scale
    ev = np.asarray(ev, dtype=float) * scale
    verts = []
    faces = []
    def V(p):
        verts.append(p)
        return len(verts) - 1
    ts = np.linspace(0.0, 1.0, n)
    grid = [[V(origin + u * eu + v * ev) for u in ts] for v in ts]
    for j in range(n - 1):
        for i in range(n - 1):
            a = grid[j][i]
            b = grid[j][i + 1]
            c = grid[j + 1][i + 1]
            d = grid[j + 1][i]
            u0, u1 = ts[i], ts[i + 1]
            v0, v1 = ts[j], ts[j + 1]
            ctr = V(origin + 0.5 * (u0 + u1) * eu + 0.5 * (v0 + v1) * ev)
            faces += [[a, b, ctr], [b, c, ctr], [c, d, ctr], [d, a, ctr]]
    return np.array(verts), np.array(faces)


CUBE_SIDES = [  # (origin, eu, ev) with eu x ev outward
    ([0, 0, 0], [0, 1, 0], [1, 0, 0]),
    ([0, 0, 1], [1, 0, 0], [0, 1, 0]),
    ([0, 0, 0], [1, 0, 0], [0, 0, 1]),
    ([0, 1, 0], [0, 0, 1], [1, 0, 0]),
    ([0, 0, 0], [0, 0, 1], [0, 1, 0]),
    ([1, 0, 0], [0, 1, 0], [0, 0, 1]),
]


def make_cube(n, scale=1.0):
    all_v = []
    all_f = []
    offset = 0
    for origin, eu, ev in CUBE_SIDES:
        v, f = grid_face(origin, eu, ev, n, scale)
        all_v.append(v)
        all_f.append(f + offset)
        offset += len(v)
    return weld(np.vstack(all_v), np.vstack(all_f))


def make_icosphere(level, scale=1.0):
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
        new_faces = []
        verts = list(verts)
        midcache = {}
        def mid(a, b):
            key = (min(a, b), max(a, b))
            if key not in midcache:
                m = (np.asarray(verts[a]) + np.asarray(verts[b])) / 2.0
                m /= np.linalg.norm(m)
                verts.append(m)
                midcache[key] = len(verts) - 1
            return midcache[key]
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        faces = np.array(new_faces)
        verts = np.array(verts)
    return np.asarray(verts) * scale, faces


def make_wedge(scale=1.0, n=4):
    profile = np.array([
        [0.0, 0.0], [1.0, 0.0], [1.0, 0.6], [0.5, 1.0], [0.0, 0.6],
    ]) * scale
    m = len(profile)
    depth = 1.2 * scale
    ys = np.linspace(0.0, depth, n)
    verts = []
    for y in ys:
        for x, z in profile:
            verts.append([x, y, z])
    verts = np.array(verts)
    faces = []
    for j in range(n - 1):
        for i in range(m):
            a = j * m + i
            b = j * m + (i + 1) % m
            c = (j + 1) * m + (i + 1) % m
            d = (j + 1) * m + i
            faces += [[a, c, b], [a, d, c]]
    for i in range(1, m - 1):
        faces.append([0, i, i + 1])
        base = (n - 1) * m
        faces.append([base, base + i + 1, base + i])
    return verts, np.array(faces)


# ----------------------------------------------------------------------
# point clouds: one tree query per point

def knn(tree, i, k) -> np.ndarray:
    """The k nearest points to point i of the tree's points, excluding i
    itself, sorted by distance with ties broken by ascending index."""
    points = tree.data
    n = len(points)
    if not (1 <= k < n):
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    d, idx = tree.query(points[i], k=min(n, k + 1))
    d, idx = np.atleast_1d(d), np.atleast_1d(idx)
    keep = idx != i
    d, idx = d[keep], idx[keep]
    if len(idx) > k:
        d, idx = d[:k], idx[:k]
    # re-query by radius so boundary ties resolve by index, not tree order
    r = d[-1] * (1 + 1e-12) + 1e-300
    cand = np.array([j for j in tree.query_ball_point(points[i], r) if j != i])
    dc = np.linalg.norm(points[cand] - points[i], axis=1)
    order = np.lexsort((cand, dc))
    return cand[order][:k].astype(np.int64)


def radius_neighbors(tree, i, r, include_self=False) -> np.ndarray:
    idx = np.array(sorted(tree.query_ball_point(tree.data[i], r)), dtype=np.int64)
    if not include_self:
        idx = idx[idx != i]
    return idx


def point_neighborhoods(cloud, spec) -> list[np.ndarray]:
    """Per-point neighbour indices including the point itself, ascending."""
    tree, nb = cKDTree(cloud.points), spec.neighborhood
    out = []
    for i in range(len(cloud)):
        if nb.mode == "radius":
            idx = radius_neighbors(tree, i, nb.radius, include_self=True)
        else:
            idx = np.sort(np.append(knn(tree, i, min(nb.k, len(cloud) - 1)), i))
        out.append(idx)
    return out


def estimate_normals_pca(cloud, k, orient_to=None) -> np.ndarray:
    if k < 3:
        raise ValueError("k must be >= 3")
    n = len(cloud)
    pts = cloud.points
    normals = np.empty((n, 3))
    nbrs = []
    tree = cKDTree(pts)
    for i in range(n):
        idx = knn(tree, i, k)
        nbrs.append(idx)
        group = np.vstack([pts[i], pts[idx]])
        center = group.mean(axis=0)
        q = group - center
        spread = np.max(np.linalg.norm(group - group[0], axis=1))
        if spread < 1e-12 * max(cloud.bbox_diagonal, 1e-300):
            raise RankDeficientNeighborhood(f"degenerate neighborhood around point {i}")
        cov = q.T @ q
        w, vec = np.linalg.eigh(cov)
        normals[i] = vec[:, 0]

    if orient_to is not None:
        ref = np.asarray(orient_to, dtype=float)
        flip = np.einsum("ij,ij->i", normals, ref) < 0
        normals[flip] *= -1
        return normals

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


def _gauss(x, sigma):
    return np.exp(-(x * x) / (sigma * sigma))


def _auto_sd(spec, d):
    if spec.spatial_sigma != "auto":
        return spec.spatial_sigma
    pos = d[d > 0]
    return float(pos.mean()) if len(pos) else 1.0


def _guidance_pc(cloud, prev, nbrs, spec):
    """Distance-weighted mean normal per point (single-normal guidance)."""
    pts = cloud.points
    out = np.empty_like(prev)
    for i, idx in enumerate(nbrs):
        d = np.linalg.norm(pts[idx] - pts[i], axis=1)
        sd = _auto_sd(spec, d)
        w = _gauss(d, sd)
        acc = (w[:, None] * prev[idx]).sum(axis=0)
        nrm = np.linalg.norm(acc)
        out[i] = acc / nrm if nrm > 1e-12 else prev[i]
    return out


def filter_point_normals(cloud, spec) -> np.ndarray:
    """The five point filters as per-point branches."""
    if cloud.normals is None:
        raise ValueError("cloud has no normals; estimate them first")
    pts = cloud.points
    prev = cloud.normals.copy()
    nbrs = point_neighborhoods(cloud, spec)

    sigma = "auto" if spec.range_kernel == "auto" else spec.range_kernel.sigma
    if sigma == "auto":
        angs = []
        for i, idx in enumerate(nbrs):
            dots = np.clip(prev[idx] @ prev[i], -1.0, 1.0)
            angs.append(np.arccos(dots))
        sigma = float(np.std(np.concatenate(angs)))
        sigma = max(sigma, 1e-6)

    for _ in range(spec.iterations):
        guidance = None
        if spec.method == "zheng_guided_pc":
            guidance = _guidance_pc(cloud, prev, nbrs, spec)
        new = np.empty_like(prev)
        for i, idx in enumerate(nbrs):
            d = np.linalg.norm(pts[idx] - pts[i], axis=1)
            if spec.method == "li_bilateral":
                x = np.arccos(np.clip(prev[idx] @ prev[i], -1.0, 1.0))
                r = d.max() if d.max() > 0 else 1.0
                sd = spec.spatial_sigma if spec.spatial_sigma != "auto" else r / 2.0
                w = Kernel("gaussian", sigma).weight(x) * _gauss(d, sd)
            elif spec.method == "zheng_guided_pc":
                x = np.linalg.norm(guidance[idx] - guidance[i], axis=1)
                sd = _auto_sd(spec, d)
                w = Kernel("gaussian", sigma).weight(x) * _gauss(d, sd)
            elif spec.method == "zheng_rolling":
                x = np.linalg.norm(prev[idx] - prev[i], axis=1)
                sd = _auto_sd(spec, d)
                w = Kernel("gaussian", sigma).weight(x) * _gauss(d, sd)
            elif spec.method == "yadav_vnvt":
                x = np.arccos(np.clip(prev[idx] @ prev[i], -1.0, 1.0))
                w = Kernel("box", sigma, box_floor=0.0).weight(x)
            else:  # digne_bilateral smooths positions only; normals pass through
                new[i] = prev[i]
                continue
            acc = (w[:, None] * prev[idx]).sum(axis=0)
            nrm = np.linalg.norm(acc)
            new[i] = acc / nrm if nrm > 1e-12 else prev[i]
        prev = new
    return prev


def update_point_positions(cloud, filtered_normals, radius, iterations) -> tuple:
    """The position update with one ball query per point per iteration."""
    n = np.asarray(filtered_normals, dtype=float)
    sigma_d = radius / 3.0
    sigma = radius / 3.0
    pts = cloud.points.copy()
    warnings = 0
    for _ in range(iterations):
        tree = cKDTree(pts)
        new = pts.copy()
        for i in range(len(pts)):
            idx = radius_neighbors(tree, i, radius)
            if len(idx) == 0:
                warnings += 1
                continue
            rel = pts[idx] - pts[i]
            d = np.linalg.norm(rel, axis=1)
            h = np.einsum("ij,j->i", rel, n[i])
            w = _gauss(d, sigma_d) * _gauss(np.abs(h), sigma)
            denom = w.sum()
            if denom <= 1e-300:
                warnings += 1
                continue
            new[i] = pts[i] + (np.dot(w, h) / denom) * n[i]
        pts = new
    return pts, warnings


def noise_spacing(points) -> float:
    """The mean nearest-neighbour distance that scales a cloud's noise."""
    tree = cKDTree(points)
    d = np.array([np.linalg.norm(points[knn(tree, i, 1)[0]] - points[i])
                  for i in range(len(points))])
    return float(d.mean())


# ----------------------------------------------------------------------
# file readers: one line, one float() or int() per token and one append per
# vertex, face or point

def load_obj(text: str) -> TriMesh:
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


def load_ply(text: str) -> TriMesh:
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
    if not pts:
        raise PointCloudError("no points")
    if nrm and len(nrm) != len(pts):
        raise PointCloudError("some lines carry normals, some do not")
    return PointCloud(np.array(pts).reshape(-1, 3),
                      np.array(nrm).reshape(-1, 3) if nrm else None)
