import json
import multiprocessing
import warnings
from pathlib import Path

import numpy as np
import pytest

from denoisekit import (NonManifoldError, PointCloud, TriMesh, add_noise, load_mesh, load_xyz,
                        make_cube, save_mesh, save_xyz, update_vertices)
from denoisekit import cli
from denoisekit.cli import main
from denoisekit.meshfilter import METHODS, POINT_METHODS


def run(*argv):
    return main(list(argv))


@pytest.fixture
def cube_obj(tmp_path):
    p = tmp_path / "cube.obj"
    assert run("make-shape", "--kind", "cube", "--n", "4", "--out", str(p)) == 0
    return p


def test_make_shape(tmp_path):
    p = tmp_path / "c.obj"
    assert run("make-shape", "--kind", "cube", "--n", "2", "--out", str(p)) == 0
    m = load_mesh(p)
    assert len(m.faces) == 24


def test_make_shape_bad_kind(tmp_path):
    code = run("make-shape", "--kind", "torus", "--out", str(tmp_path / "t.obj"))
    assert code == 1


def test_add_noise_zero_is_identity(cube_obj, tmp_path):
    out = tmp_path / "same.obj"
    assert run("add-noise", "--input", str(cube_obj), "--sigma-factor", "0",
               "--seed", "7", "--output", str(out)) == 0
    assert np.array_equal(load_mesh(cube_obj).vertices, load_mesh(out).vertices)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_add_noise_non_finite_factor(cube_obj, tmp_path, capsys, value):
    out = tmp_path / "noisy.obj"
    assert run("add-noise", "--input", str(cube_obj), "--sigma-factor", value,
               "--seed", "7", "--output", str(out)) == 1
    assert "error: sigma_factor must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_add_noise_deterministic(cube_obj, tmp_path):
    a, b = tmp_path / "a.obj", tmp_path / "b.obj"
    for out in (a, b):
        assert run("add-noise", "--input", str(cube_obj), "--sigma-factor", "0.3",
                   "--seed", "9", "--output", str(out)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_denoise_unknown_method(cube_obj, tmp_path):
    code = run("denoise", "--input", str(cube_obj), "--method", "magic",
               "--output", str(tmp_path / "o.obj"))
    assert code == 2


def test_denoise_missing_input(tmp_path):
    code = run("denoise", "--input", str(tmp_path / "nope.obj"),
               "--method", "zheng-bilateral", "--output", str(tmp_path / "o.obj"))
    assert code == 2


def test_denoise_processing_error(tmp_path):
    bad = tmp_path / "bad.obj"
    bad.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")
    code = run("denoise", "--input", str(bad), "--method", "zheng-bilateral",
               "--output", str(tmp_path / "o.obj"))
    assert code == 1


def test_denoise_non_finite_vertex(tmp_path, capsys):
    bad = tmp_path / "nan.obj"
    bad.write_text("v 0 0 0\nv 1 0 0\nv 0 nan 0\nf 1 2 3\n")
    out = tmp_path / "o.obj"
    code = run("denoise", "--input", str(bad), "--method", "zheng-bilateral",
               "--output", str(out))
    assert code == 1
    assert "error: non-finite vertex coordinates" in capsys.readouterr().err
    assert not out.exists()


def test_denoise_malformed_xyz(tmp_path, capsys):
    bad = tmp_path / "bad.xyz"
    bad.write_text("0 0 0\n1 0 0 0\n")
    code = run("denoise", "--input", str(bad), "--method", "li-bilateral",
               "--output", str(tmp_path / "o.xyz"))
    assert code == 1
    assert "error: line 2: expected 3 or 6 columns" in capsys.readouterr().err


def test_denoise_non_finite_xyz(tmp_path, capsys):
    bad = tmp_path / "nan.xyz"
    bad.write_text("0 0 0\n1 0 0\n0 nan 0\n1 1 0\n")
    out = tmp_path / "o.xyz"
    code = run("denoise", "--input", str(bad), "--method", "li-bilateral",
               "--output", str(out))
    assert code == 1
    assert "error: non-finite point coordinates" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, text, message", [
    ("empty.xyz", "# no points\n\n", "error: no points"),
    ("empty.obj", "# no faces\nv 0 0 0\nv 1 0 0\nv 0 1 0\n", "error: no faces"),
    ("empty.ply", "ply\nformat ascii 1.0\nelement vertex 0\nproperty float x\n"
                  "property float y\nproperty float z\nelement face 0\nend_header\n",
     "error: no faces"),
])
def test_denoise_empty_input(tmp_path, capsys, name, text, message):
    """A file with no points (a cloud) or no faces (a mesh) exits 1 and
    writes nothing."""
    bad = tmp_path / name
    bad.write_text(text)
    out = tmp_path / ("o" + bad.suffix)
    code = run("denoise", "--input", str(bad), "--method", "li-bilateral"
               if bad.suffix == ".xyz" else "zheng-bilateral", "--output", str(out))
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_denoise_duplicated_face(tmp_path, capsys):
    """A face listed twice on a closed mesh gives each of its edges a third
    face: the vertex update raises NonManifoldError, and ``denoise`` exits 1."""
    cube = make_cube(2)
    mesh = TriMesh(cube.vertices, np.vstack([cube.faces, cube.faces[:1]]))
    with pytest.raises(NonManifoldError):
        update_vertices(mesh, mesh.face_normals, 1)
    save_mesh(mesh, tmp_path / "dup.obj")
    out = tmp_path / "o.obj"
    code = run("denoise", "--input", str(tmp_path / "dup.obj"), "--method", "zheng-bilateral",
               "--output", str(out))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: non-manifold edges: ")
    assert not out.exists()


PLY_4_2 = ("ply\nformat ascii 1.0\nelement vertex 4\nproperty float x\nproperty float y\n"
           "property float z\nelement face 2\nproperty list uchar int vertex_indices\n"
           "end_header\n0 0 0\n1 0 0\n{v2}\n1 1 0\n3 0 1 2\n{f1}")


@pytest.mark.parametrize("name, text, message", [
    ("zero.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\nv 1 1 0\n", "line 4: bad face index"),
    ("short-vertex.ply", PLY_4_2.format(v2="0 1", f1="3 1 3 2\n"),
     "line 12: vertex row with fewer than 3 values"),
    ("missing-face.ply", PLY_4_2.format(v2="0 1 0", f1=""),
     "PLY declares 4 vertices and 2 faces but has 5 rows"),
    ("short-face.ply", PLY_4_2.format(v2="0 1 0", f1="3 1 3\n"),
     "line 15: face with <3 vertices or fewer than its count"),
    ("bad-index.ply", PLY_4_2.format(v2="0 1 0", f1="3 1 3 x\n"), "line 15: bad face index"),
    ("bad-number.xyz", "0 0 0\n1 x 0\n", "line 2: bad coordinate"),
], ids=["zero-obj", "short-vertex-ply", "missing-face-ply", "short-face-ply", "bad-index-ply",
        "bad-number-xyz"])
def test_denoise_malformed_input(tmp_path, capsys, name, text, message):
    """A malformed OBJ, PLY or XYZ file exits 1, names the fault and writes
    nothing."""
    bad = tmp_path / name
    bad.write_text(text)
    out = tmp_path / ("o" + bad.suffix)
    code = run("denoise", "--input", str(bad), "--method", "li-bilateral"
               if bad.suffix == ".xyz" else "zheng-bilateral", "--output", str(out))
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_denoise_mesh_with_report(cube_obj, tmp_path):
    noisy = tmp_path / "noisy.obj"
    assert run("add-noise", "--input", str(cube_obj), "--sigma-factor", "0.3",
               "--seed", "42", "--output", str(noisy)) == 0
    out = tmp_path / "clean.obj"
    report = tmp_path / "r.json"
    code = run("denoise", "--input", str(noisy), "--method", "yadav-tukey-2018",
               "--sigma", "1.0", "--iters", "10", "--vertex-iters", "10",
               "--output", str(out), "--report", str(report),
               "--ground-truth", str(cube_obj))
    assert code == 0
    data = json.loads(report.read_text())
    noisy_err = json.loads(run_metrics(noisy, cube_obj, tmp_path))
    assert data["mean_angular_error_deg"] < noisy_err["mean_angular_error_deg"]
    assert "zero_weight_sums" in data["warnings"]


def run_metrics(cand, gt, tmp_path):
    out = tmp_path / "m.json"
    assert run("metrics", "--input", str(cand), "--ground-truth", str(gt),
               "--out", str(out)) == 0
    return out.read_text()


@pytest.mark.parametrize("cloud_is_truth", [False, True])
def test_mesh_scored_against_cloud_exits_1(cube_obj, tmp_path, capsys, cloud_is_truth):
    """A mesh scored against a point cloud, either way round, by ``metrics`` and by
    ``denoise --report``, exits 1 with a message and writes no file."""
    cloud = tmp_path / "cube.xyz"
    save_xyz(PointCloud(load_mesh(cube_obj).vertices), cloud)
    source, truth = (cube_obj, cloud) if cloud_is_truth else (cloud, cube_obj)
    method = "zheng-bilateral" if cloud_is_truth else "li-bilateral"
    out, report = tmp_path / f"out{source.suffix}", tmp_path / "r.json"
    assert run("metrics", "--input", str(source), "--ground-truth", str(truth),
               "--out", str(report)) == 1
    assert run("denoise", "--input", str(source), "--method", method, "--output", str(out),
               "--ground-truth", str(truth), "--report", str(report)) == 1
    message = "error: ground truth and candidate must be both meshes or both point clouds"
    assert capsys.readouterr().err.count(message) == 2
    assert not out.exists() and not report.exists()


def test_denoise_report_needs_ground_truth(cube_obj, tmp_path):
    code = run("denoise", "--input", str(cube_obj), "--method", "zheng-bilateral",
               "--output", str(tmp_path / "o.obj"),
               "--report", str(tmp_path / "r.json"))
    assert code == 2
    assert not (tmp_path / "o.obj").exists()


def test_denoise_angle_sigma_in_degrees(cube_obj, tmp_path):
    code = run("denoise", "--input", str(cube_obj), "--method", "yadav-box-2017",
               "--sigma", "30", "--iters", "2", "--vertex-iters", "2",
               "--output", str(tmp_path / "o.obj"))
    assert code == 0


def test_denoise_point_cloud(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=3))
    xs = np.linspace(0, 1, 15)
    pts = np.array([[x, y, 0.0] for y in xs for x in xs])
    pts[:, 2] += rng.normal(0, 0.005, len(pts))
    src = tmp_path / "cloud.xyz"
    save_xyz(PointCloud(pts), src)
    out = tmp_path / "out.xyz"
    code = run("denoise", "--input", str(src), "--method", "li-bilateral",
               "--sigma", "20", "--k", "8", "--vertex-iters", "1",
               "--output", str(out))
    assert code == 0
    cloud = load_xyz(out)
    assert len(cloud) == len(pts)
    assert cloud.normals is not None


def test_denoise_cloud_honours_vertex_iters(tmp_path):
    """--vertex-iters sets the point-position iterations, apart from --iters
    (the normal passes): the normals agree, the positions do not."""
    rng = np.random.Generator(np.random.Philox(key=5))
    p = rng.normal(size=(300, 3))
    src = tmp_path / "sphere.xyz"
    save_xyz(add_noise(PointCloud(p / np.linalg.norm(p, axis=1)[:, None]), 0.3, 42), src)
    outs = []
    for vertex_iters in ("1", "5"):
        out = tmp_path / f"o{vertex_iters}.xyz"
        assert run("denoise", "--input", str(src), "--method", "li-bilateral", "--sigma", "20",
                   "--iters", "1", "--vertex-iters", vertex_iters, "--output", str(out)) == 0
        outs.append(load_xyz(out))
    assert np.array_equal(outs[0].normals, outs[1].normals)
    assert np.max(np.abs(outs[0].points - outs[1].points)) > 1e-4


@pytest.mark.parametrize("kind, flag, value, message", [
    ("mesh", "--sigma-d", "0", "spatial_sigma must be finite and > 0"),
    ("mesh", "--sigma-d", "-0.2", "spatial_sigma must be finite and > 0"),
    ("cloud", "--sigma-d", "0", "spatial_sigma must be finite and > 0"),
    ("cloud", "--radius", "0", "radius must be finite and > 0"),
    ("mesh", "--sigma", "inf", "kernel sigma must be finite and > 0"),
])
def test_denoise_non_positive_spatial_scale(tmp_path, capsys, kind, flag, value, message):
    """A zero spatial sigma or radius, or an infinite kernel sigma, exits 1
    and writes nothing, instead of leaving every normal in place behind
    zero-weight sums."""
    if kind == "mesh":
        src, method, out = tmp_path / "noisy.obj", "zheng-bilateral", tmp_path / "o.obj"
        save_mesh(add_noise(make_cube(6), 0.3, 42), src)
    else:
        src, method, out = tmp_path / "noisy.xyz", "li-bilateral", tmp_path / "o.xyz"
        save_xyz(add_noise(PointCloud(make_cube(6).vertices), 0.3, 42), src)
    code = run("denoise", "--input", str(src), "--method", method, flag, value,
               "--iters", "3", "--output", str(out))
    assert code == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind, method, sigma", [
    ("mesh", "zheng-bilateral", "1e-160"),
    ("mesh", "yadav-tukey-2018", "1e-170"),
    ("cloud", "zheng-rolling", "1e-160"),
])
def test_denoise_overflowing_kernel_sigma_exits_1(tmp_path, capsys, kind, method, sigma):
    """A sigma whose peak kernel weight overflows exits 1 with a message and
    writes nothing. The mesh rows wrote an OBJ of NaN vertices (inf * 0 in
    the Gaussian) or ended in a ZeroDivisionError traceback."""
    if kind == "mesh":
        src, out = tmp_path / "noisy.obj", tmp_path / "o.obj"
        save_mesh(add_noise(make_cube(4), 0.3, 42), src)
    else:
        rng = np.random.Generator(np.random.Philox(key=5))
        p = rng.normal(size=(300, 3))
        src, out = tmp_path / "noisy.xyz", tmp_path / "o.xyz"
        save_xyz(add_noise(PointCloud(p / np.linalg.norm(p, axis=1)[:, None]), 0.3, 42), src)
    code = run("denoise", "--input", str(src), "--method", method, "--sigma", sigma,
               "--output", str(out))
    assert code == 1
    assert f"error: kernel sigma {sigma} is too small" in capsys.readouterr().err
    assert not out.exists()


def test_denoise_tiny_finite_sigma_keeps_normals(tmp_path):
    """A Gaussian sigma of 1e-100 has a finite peak weight near 2e200, so the
    weighted normal sums' squares overflow. They were measured as infinite and
    every normal vanished; now the run matches sigma 1e-60, with no vanished sum."""
    src = tmp_path / "noisy.obj"
    save_mesh(add_noise(make_cube(4), 0.3, 42), src)
    outputs = []
    for sigma in ("1e-100", "1e-60"):
        out, report = tmp_path / f"{sigma}.obj", tmp_path / f"{sigma}.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("denoise", "--input", str(src), "--method", "zheng-bilateral",
                       "--sigma", sigma, "--output", str(out), "--ground-truth", str(src),
                       "--report", str(report)) == 0
        assert json.loads(report.read_text())["warnings"]["zero_weight_sums"] == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _mesh_and_cloud(tmp_path):
    mesh, cloud = tmp_path / "noisy.obj", tmp_path / "noisy.xyz"
    save_mesh(add_noise(make_cube(4), 0.3, 42), mesh)
    save_xyz(add_noise(PointCloud(make_cube(4).vertices), 0.3, 42), cloud)
    return mesh, cloud


@pytest.mark.parametrize("argv, message", [
    (["denoise", "--input", "{mesh}", "--method", "zheng-bilateral", "--iters", "2",
      "--vertex-iters", "-1", "--output", "{out}.obj"], "vertex_iterations must be >= 0"),
    (["denoise", "--input", "{cloud}", "--method", "li-bilateral", "--iters", "2",
      "--vertex-iters", "-1", "--output", "{out}.xyz"], "iterations must be >= 0"),
    (["experiment", "--preset", "plane", "--n", "4", "--noise", "0.2", "--seed", "1",
      "--methods", "zheng-bilateral", "--iters", "2", "--vertex-iters", "-2",
      "--out", "{out}"], "vertex_iterations must be >= 0"),
    (["experiment", "--preset", "plane", "--n", "4", "--noise", "0.2", "--seed", "1",
      "--methods", "zheng-bilateral", "--iters", "2", "--vertex-iters", "2",
      "--feature-threshold", "200", "--out", "{out}"],
     "feature threshold must be in [0, 180] degrees"),
    (["kernel-table", "--kernel", "gaussian", "--xmax", "inf", "--out", "{out}.csv"],
     "x_max must be finite and > 0"),
    (["make-shape", "--kind", "icosphere", "--n", "-1", "--out", "{out}.obj"],
     "level must be >= 0"),
    (["make-shape", "--kind", "wedge", "--n", "1", "--out", "{out}.obj"], "n must be >= 2"),
    (["make-shape", "--kind", "wedge", "--n", "-3", "--out", "{out}.obj"], "n must be >= 2"),
    (["make-shape", "--kind", "cube", "--scale", "-1", "--out", "{out}.obj"],
     "scale must be finite and > 0"),
    (["make-shape", "--kind", "cube", "--n", "3", "--scale", "0", "--out", "{out}.obj"],
     "scale must be finite and > 0"),
    (["make-shape", "--kind", "plane", "--scale", "1e-200", "--out", "{out}.obj"],
     "degenerate faces"),
    (["denoise", "--input", "{mesh}", "--method", "zheng-bilateral", "--iters", "2",
      "--vertex-iters", "2", "--output", "{out}.obj", "--ground-truth", "{mesh}",
      "--feature-threshold", "nan", "--report", "{out}.json"],
     "feature threshold must be in [0, 180] degrees"),
], ids=["mesh-vertex-iters", "cloud-vertex-iters", "experiment-vertex-iters",
        "experiment-feature-threshold", "table-xmax", "icosphere-level", "wedge-n-1",
        "wedge-n-negative", "cube-scale-negative", "cube-scale-0", "plane-scale-1e-200",
        "feature-threshold"])
def test_out_of_range_number_exits_1(tmp_path, capsys, argv, message):
    """A negative iteration count, level or scale, too few vertices per edge,
    a scale whose faces underflow, an infinite table range and a feature
    threshold outside [0, 180] each exit 1 and write no file, instead of
    giving a silent result: no update, a NaN row, a smaller or inside-out
    shape, zero normals or no feature edges."""
    mesh, cloud = _mesh_and_cloud(tmp_path)
    names = dict(mesh=mesh, cloud=cloud, out=tmp_path / "out")
    before = sorted(tmp_path.rglob("*"))
    assert run(*(a.format(**names) for a in argv)) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_collapsed_face_exits_1(tmp_path, capsys):
    """A face whose three vertices coincide was accepted and denoised."""
    src = tmp_path / "point.obj"
    src.write_text("v 1 2 3\nv 1 2 3\nv 1 2 3\nf 1 2 3\n")
    assert run("denoise", "--input", str(src), "--method", "zheng-bilateral",
               "--output", str(tmp_path / "o.obj")) == 1
    assert "error: degenerate faces: [0]" in capsys.readouterr().err
    assert not (tmp_path / "o.obj").exists()


def test_method_lists_are_pinned():
    """The lists derived from the method table, spelled out: perfbench and
    the rows of an experiment's summary.csv follow EXPERIMENT_METHODS."""
    assert METHODS == (
        "generic_unilateral", "generic_bilateral", "belyaev_ohtake", "yagou_mean",
        "yagou_median", "yagou_weighted_median", "yadav_box_2017", "shen_fuzzy_median",
        "tasdizen", "centin_signoroni", "zheng_bilateral", "zhang_guided",
        "yadav_tukey_2018", "gradient_descent")
    assert POINT_METHODS == ("li_bilateral", "zheng_guided_pc", "digne_bilateral",
                             "zheng_rolling", "yadav_vnvt")
    assert cli.EXPERIMENT_METHODS == (
        "belyaev-ohtake", "yagou-mean", "yagou-median", "yagou-weighted-median",
        "yadav-box-2017", "shen-fuzzy-median", "tasdizen", "centin-signoroni",
        "zheng-bilateral", "zhang-guided", "yadav-tukey-2018")
    assert cli.ANGLE_SIGMA_METHODS == {"belyaev-ohtake", "li-bilateral", "tasdizen",
                                       "yadav-box-2017", "yadav-vnvt"}
    doc = " ".join(cli.__doc__.split())
    assert "(yadav-box-2017, tasdizen, belyaev-ohtake, li-bilateral, yadav-vnvt) take" in doc


def test_metrics_stdout(cube_obj, capsys):
    assert run("metrics", "--input", str(cube_obj),
               "--ground-truth", str(cube_obj)) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["mean_angular_error_deg"] == 0.0


def test_kernel_table(tmp_path):
    out = tmp_path / "t.csv"
    assert run("kernel-table", "--kernel", "gaussian", "--sigma", "1",
               "--xmax", "4", "--n", "200", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x,rho,psi,g"
    assert len(lines) == 201


def test_kernel_table_unknown_kernel(tmp_path):
    assert run("kernel-table", "--kernel", "nope",
               "--out", str(tmp_path / "t.csv")) == 2


def test_experiment_summary(tmp_path):
    out = tmp_path / "exp"
    code = run("experiment", "--preset", "plane", "--n", "5", "--noise", "0.2",
               "--seed", "42", "--methods", "zheng-bilateral,yadav-tukey-2018",
               "--iters", "3", "--vertex-iters", "3", "--out", str(out))
    assert code == 0
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert lines[0].startswith("method,mean_angular_error_deg")
    assert len(lines) == 4  # header + noisy baseline + 2 methods
    assert (out / "zheng-bilateral.json").exists()
    assert (out / "zheng-bilateral.obj").exists()
    assert (out / "ground_truth.obj").exists()
    assert (out / "noisy.obj").exists()


def test_experiment_unknown_method(tmp_path):
    assert run("experiment", "--preset", "plane", "--noise", "0.2", "--seed", "1",
               "--methods", "nope", "--out", str(tmp_path / "e")) == 2


def test_experiment_unknown_preset(tmp_path):
    assert run("experiment", "--preset", "torus", "--noise", "0.2", "--seed", "1",
               "--out", str(tmp_path / "e")) == 2


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_experiment_bad_threads_exits_2(tmp_path, capsys, threads):
    """A thread count below 1 was accepted and ignored."""
    out = tmp_path / "e"
    assert run("--threads", threads, "experiment", "--preset", "plane", "--n", "4",
               "--noise", "0.2", "--seed", "1", "--out", str(out)) == 2
    assert f"error: --threads must be >= 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()


def test_experiment_worker_count(monkeypatch):
    """min(--threads, rows, CPUs), checked without starting a process."""
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    assert cli._experiment_workers(1, 11) == 1
    assert cli._experiment_workers(8, 11) == 2
    assert cli._experiment_workers(10 ** 6, 11) == 2
    assert cli._experiment_workers(8, 1) == 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._experiment_workers(8, 11) == 1


def _experiment(out, threads):
    return run("--threads", str(threads), "experiment", "--preset", "cube", "--n", "4",
               "--noise", "0.3", "--seed", "42", "--iters", "3", "--vertex-iters", "3",
               "--out", str(out))


def _tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))}


def test_experiment_workers_write_identical_files(tmp_path, monkeypatch):
    """Every OBJ, JSON and CSV file is the same with one worker (in-process,
    no fork) and with two worker processes."""
    def no_fork():
        raise AssertionError("--threads 1 started a process")

    with monkeypatch.context() as m:
        m.setattr("os.fork", no_fork)
        assert _experiment(tmp_path / "one", 1) == 0
    assert _experiment(tmp_path / "two", 2) == 0
    one, two = _tree(tmp_path / "one"), _tree(tmp_path / "two")
    assert len(one) == 3 + 2 * len(cli.EXPERIMENT_METHODS)
    assert one == two


def test_experiment_row_failing_in_worker_writes_nothing(tmp_path, monkeypatch, capsys):
    """A row that raises inside a worker exits 1, writes no file and leaves
    no worker running."""
    denoise = cli.denoise_mesh

    def failing(mesh, spec, **kw):
        if spec.method == "tasdizen":
            raise ValueError("tasdizen failed")
        return denoise(mesh, spec, **kw)

    monkeypatch.setattr(cli, "denoise_mesh", failing)
    out = tmp_path / "e"
    assert _experiment(out, 2) == 1
    assert "error: tasdizen failed" in capsys.readouterr().err
    assert not out.exists()
    assert multiprocessing.active_children() == []
