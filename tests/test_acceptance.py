"""End-to-end acceptance checks.

Each test prints a single `criterion N: PASS/FAIL` line with the measured
numbers before asserting, so a full run gives a one-line verdict per
criterion regardless of which ones hold.
"""

import math
import time

import numpy as np
import pytest

from denoisekit import (
    FilterSpec,
    Kernel,
    KERNEL_KINDS,
    NeighborhoodSpec,
    PointCloud,
    TriMesh,
    add_noise,
    denoise_mesh,
    filter_gradient_descent,
    filter_normals,
    filter_point_normals,
    laplacian_smooth,
    load_mesh,
    make_cube,
    make_icosphere,
    make_plane,
    make_wedge,
    save_mesh,
    update_vertices,
    vector_directional_median,
    vector_median,
)
from denoisekit.bench import angular_errors_deg
from denoisekit.cli import main as cli_main
from denoisekit.meshfilter import METHODS, POINT_METHODS
from conftest import max_angle, point_spec, rotation_matrix

MESH_SIGMAS = {"yadav_box_2017": math.radians(30.0),
               "tasdizen": math.radians(30.0),
               "belyaev_ohtake": 1.0}
POINT_SIGMAS = {"li_bilateral": "auto", "digne_bilateral": "auto",
                "zheng_guided_pc": 0.35, "zheng_rolling": 0.35,
                "yadav_vnvt": math.radians(40.0)}


def mesh_preset(method, **kw):
    return FilterSpec.preset(method, sigma=MESH_SIGMAS.get(method, 0.35), **kw)


def verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# ----------------------------------------------------------------------

def test_criterion_01_kernel_identities():
    t0 = time.time()
    breaks = {"truncated_l2": 1.0, "truncated_l1": 1.0, "huber": 1.0,
              "tukey": 1.0, "box": 1.0, "centin_rational": 1.0}
    worst_id = 0.0
    worst_d = 0.0
    h = 1e-5
    for kind in KERNEL_KINDS:
        k = Kernel(kind, 1.0, box_floor=0.1 if kind == "box" else 0.0)
        xs = np.arange(1, 61) * 0.05
        if kind in breaks:
            xs = xs[np.abs(xs - breaks[kind]) > 1e-3]
        worst_id = max(worst_id, float(np.nanmax(np.abs(k.weight(xs) * xs - k.psi(xs)))))
        num = (k.rho(xs + h) - k.rho(xs - h)) / (2.0 * h)
        worst_d = max(worst_d, float(np.max(np.abs(k.psi(xs) - num))))
    dt = time.time() - t0
    ok = worst_id < 1e-12 and worst_d < 1e-5 and dt < 1.0
    verdict(1, ok, f"identity {worst_id:.2e} (<1e-12), derivative {worst_d:.2e} "
                   f"(<1e-5), {dt:.2f}s (<1s)")


def test_criterion_02_redescending():
    def tail(kind):
        k = Kernel(kind, 1.0)
        peak = float(np.nanmax(np.abs(k.psi(np.arange(1, 61) * 0.05))))
        return [float(k.psi(x)) / peak for x in (10.0, 100.0, 1e8)]

    details = []
    ok = True
    # compact or exponential tails: negligible influence already at 100 sigma
    for kind in ("gaussian", "tukey", "truncated_l1"):
        ratio = tail(kind)[1]
        good = ratio < 1e-6
        ok = ok and good
        details.append(f"{kind} psi(100s)/peak={ratio:.1e}{'' if good else ' (!)'}")
    # the Lorentzian psi = 2x/(2s^2+x^2) vanishes only like 2s^2/x: it must
    # descend strictly past its peak and be negligible far out
    r10, r100, far = tail("lorentzian")
    good = far < 1e-6 and r100 < r10 < 1.0
    ok = ok and good
    details.append(f"lorentzian psi/peak 10s={r10:.1e}, 100s={r100:.1e}, "
                   f"1e8s={far:.1e} (need 100s<10s<1, 1e8s<1e-6)"
                   f"{'' if good else ' (!)'}")
    # monotone controls keep their influence and fail both Lorentzian checks
    for kind in ("huber", "l1", "l2"):
        r10, r100, far = tail(kind)
        still = r100 >= 1e-6 and far >= 1e-6 and not r100 < r10 < 1.0
        ok = ok and still
        details.append(f"{kind} control={'ok' if still else 'bad'}")
    verdict(2, ok, "; ".join(details))


def test_criterion_03_equivariance():
    t0 = time.time()
    R = rotation_matrix([0.4, -1.0, 0.7], 1.234)
    t = np.array([0.31, -1.2, 0.77])
    noisy = add_noise(make_cube(4), 0.2, 0)
    rotated = TriMesh(noisy.vertices @ R.T, noisy.faces, validate=False)
    shifted = TriMesh(noisy.vertices + t, noisy.faces, validate=False)
    worst_rot = 0.0
    worst_shift = 0.0
    for method in METHODS:
        spec = mesh_preset(method, iterations=2,
                           step_lambda=0.05 if method == "gradient_descent" else 1.0)
        base = filter_normals(noisy, spec).normals
        worst_rot = max(worst_rot,
                        max_angle(base @ R.T, filter_normals(rotated, spec).normals))
        worst_shift = max(worst_shift,
                          float(np.max(np.abs(base - filter_normals(shifted, spec).normals))))
    rng = np.random.Generator(np.random.Philox(key=30))
    p = rng.normal(size=(500, 3))
    p /= np.linalg.norm(p, axis=1)[:, None]
    n = p + rng.normal(0, 0.2, (500, 3))
    n /= np.linalg.norm(n, axis=1)[:, None]
    cloud = PointCloud(p, n)
    cloud_r = PointCloud(p @ R.T, n @ R.T)
    cloud_t = PointCloud(p + t, n)
    for method in POINT_METHODS:
        spec = point_spec(method, POINT_SIGMAS[method], k=8)
        base = filter_point_normals(cloud, spec)
        worst_rot = max(worst_rot,
                        max_angle(base @ R.T, filter_point_normals(cloud_r, spec)))
        worst_shift = max(worst_shift,
                          float(np.max(np.abs(base - filter_point_normals(cloud_t, spec)))))
    dt = time.time() - t0
    ok = worst_rot < 1e-6 and worst_shift < 1e-9 and dt < 30.0
    verdict(3, ok, f"rotation {worst_rot:.2e} (<1e-6), translation "
                   f"{worst_shift:.2e} (<1e-9), {dt:.1f}s (<30s)")


def test_criterion_04_fixed_point():
    mesh = make_plane(10)
    worst_n = 0.0
    worst_v = 0.0
    for method in METHODS:
        spec = mesh_preset(method, iterations=2,
                           step_lambda=0.05 if method == "gradient_descent" else 1.0)
        field = filter_normals(mesh, spec)
        worst_n = max(worst_n, max_angle(field.normals, mesh.face_normals))
        v = update_vertices(mesh, field.normals, iterations=5, step=1.0)
        worst_v = max(worst_v, float(np.max(np.abs(v - mesh.vertices))))
    xs = np.linspace(0, 1, 10)
    pts = np.array([[x, y, 0.0] for y in xs for x in xs])
    normals = np.tile([0.0, 0.0, 1.0], (100, 1))
    cloud = PointCloud(pts, normals)
    for method in POINT_METHODS:
        spec = point_spec(method, POINT_SIGMAS[method], k=8)
        out = filter_point_normals(cloud, spec)
        worst_n = max(worst_n, max_angle(out, normals))
    ok = worst_n < 1e-9 and worst_v < 1e-9
    verdict(4, ok, f"normals {worst_n:.2e}, vertices {worst_v:.2e} (both <1e-9)")


def test_criterion_05_feature_preservation_ordering():
    t0 = time.time()
    truth = make_cube(10)
    edge_map = {tuple(e): fs for e, fs in zip(map(tuple, truth.edges),
                                              truth.edge_faces)}
    feat_faces = set()
    for e in map(tuple, truth.dihedral_feature_edges(70.0)):
        feat_faces.update(edge_map[e])
    feat = np.array(sorted(feat_faces))
    specs = {
        "tukey": FilterSpec.preset("yadav_tukey_2018", sigma=1.0, iterations=20),
        "zheng": FilterSpec.preset("zheng_bilateral", sigma=0.35, iterations=20),
        "mean": FilterSpec.preset("yagou_mean", iterations=20,
                                  neighborhood=NeighborhoodSpec("shared_edge")),
    }
    ratios = {name: [] for name in specs}  # global error over the noisy input's
    order_ok = 0
    for seed in range(42, 47):
        noisy = add_noise(truth, 0.3, seed)
        base = angular_errors_deg(truth.face_normals, noisy.face_normals).mean()
        feat_err = {}
        for name, spec in specs.items():
            out, _ = denoise_mesh(noisy, spec, vertex_iterations=30, step=1.0)
            errs = angular_errors_deg(truth.face_normals, out.face_normals)
            feat_err[name] = errs[feat].mean()
            ratios[name].append(float(errs.mean() / base))
        if feat_err["tukey"] < feat_err["zheng"] < feat_err["mean"]:
            order_ok += 1
    # the robust filters must cut the global error by at least 40%; the plain
    # mean is the non-robust control, which rounds the edges off, and must
    # only improve on the noisy input
    beat40 = {name: sum(r <= 0.6 for r in ratios[name]) for name in ("tukey", "zheng")}
    mean_better = sum(r < 1.0 for r in ratios["mean"])
    dt = time.time() - t0
    ok = (order_ok >= 4 and all(v >= 4 for v in beat40.values()) and mean_better >= 4
          and dt < 120.0)
    per_seed = "; ".join(f"{name} {' '.join(f'{r:.2f}' for r in rs)}"
                         for name, rs in ratios.items())
    verdict(5, ok, f"ordering {order_ok}/5 seeds (need >=4), error/noisy per seed "
                   f"{per_seed}, <=0.6 seeds {beat40} (need >=4 each), mean <1 "
                   f"seeds {mean_better} (need >=4), {dt:.0f}s (<120s)")


def test_criterion_06_shrinkage_ordering():
    t0 = time.time()
    truth = make_icosphere(3)
    spec = FilterSpec.preset("zheng_bilateral", sigma=0.35, iterations=20)
    wins = 0
    for seed in range(42, 47):
        noisy = add_noise(truth, 0.2, seed)
        vn = noisy.volume()
        two, _ = denoise_mesh(noisy, spec, vertex_iterations=20, step=1.0)
        lap = TriMesh(laplacian_smooth(noisy, 20, 0.5), noisy.faces, validate=False)
        if abs(two.volume() - vn) / abs(vn) < abs(lap.volume() - vn) / abs(vn):
            wins += 1
    dt = time.time() - t0
    ok = wins >= 4 and dt < 60.0
    verdict(6, ok, f"two-stage shrinks less in {wins}/5 seeds (need >=4), "
                   f"{dt:.0f}s (<60s)")


def test_criterion_07_gradient_descent_mutual_oracle():
    noisy = add_noise(make_icosphere(0), 0.2, 7)  # 20 faces
    gd_spec = FilterSpec.preset("gradient_descent", sigma=1.0,
                                range_kernel=Kernel("gaussian", 1.0),
                                iterations=200, step_lambda=0.05)
    avg_spec = FilterSpec.preset("generic_unilateral", sigma=1.0, iterations=400)
    one_avg = FilterSpec.preset("generic_unilateral", sigma=1.0, iterations=1)
    one_gd = FilterSpec.preset("gradient_descent", sigma=1.0,
                               range_kernel=Kernel("gaussian", 1.0),
                               iterations=1, step_lambda=0.05)
    gd = filter_gradient_descent(noisy, gd_spec).normals
    avg = filter_normals(noisy, avg_spec).normals
    move_a = max_angle(gd, filter_normals(noisy, one_avg, initial=gd).normals)
    move_b = max_angle(avg, filter_gradient_descent(noisy, one_gd, initial=avg).normals)
    ok = move_a < 1e-3 and move_b < 1e-3
    verdict(7, ok, f"averaging pass at descent limit moves {move_a:.1e}, descent "
                   f"step at averaging limit moves {move_b:.1e} (both <1e-3)")


def test_criterion_08_median_bruteforce():
    rng = np.random.Generator(np.random.Philox(key=8))
    mism_e = mism_d = 0
    for _ in range(1000):
        n = rng.normal(size=(7, 3))
        n /= np.linalg.norm(n, axis=1)[:, None]
        _, ie = vector_median(n)
        sums = [sum(float(np.linalg.norm(n[j] - n[k])) for k in range(7))
                for j in range(7)]
        if ie != int(np.argmin(sums)):
            mism_e += 1
        _, idir = vector_directional_median(n)
        asums = [sum(math.acos(max(-1.0, min(1.0, float(n[j] @ n[k]))))
                     for k in range(7)) for j in range(7)]
        if idir != int(np.argmin(asums)):
            mism_d += 1
    ok = mism_e == 0 and mism_d == 0
    verdict(8, ok, f"index mismatches over 1000 sets: euclidean {mism_e}, "
                   f"directional {mism_d} (need 0)")


def test_criterion_09_experiment_determinism(tmp_path):
    def run(outdir, threads):
        code = cli_main(["--threads", str(threads), "experiment",
                         "--preset", "plane", "--n", "5", "--noise", "0.2",
                         "--seed", "42", "--methods", "all",
                         "--iters", "3", "--vertex-iters", "3",
                         "--out", str(outdir)])
        assert code == 0
        return (outdir / "summary.csv").read_bytes()
    a = run(tmp_path / "a", 1)
    b = run(tmp_path / "b", 1)
    c = run(tmp_path / "c", 8)
    ok = a == b == c
    verdict(9, ok, f"summary CSVs byte-identical across reruns and "
                   f"--threads 1 vs 8: {a == b and b == c}")


def test_criterion_10_obj_roundtrip(tmp_path):
    shapes = {"plane": make_plane(6), "cube": make_cube(3),
              "icosphere": make_icosphere(2), "wedge": make_wedge()}
    worst = 0.0
    conn_ok = True
    for name, mesh in shapes.items():
        p = tmp_path / f"{name}.obj"
        save_mesh(mesh, p)
        again = load_mesh(p)
        conn_ok = conn_ok and np.array_equal(mesh.faces, again.faces)
        worst = max(worst, float(np.max(np.abs(mesh.vertices - again.vertices))))
    ok = conn_ok and worst < 1e-8
    verdict(10, ok, f"connectivity exact: {conn_ok}, max coordinate deviation "
                    f"{worst:.1e} (<1e-8)")
