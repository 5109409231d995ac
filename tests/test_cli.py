import json

import numpy as np
import pytest

from denoisekit import load_mesh, load_xyz, make_plane, save_xyz, PointCloud
from denoisekit.cli import main


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


def test_denoise_report_needs_ground_truth(cube_obj, tmp_path):
    code = run("denoise", "--input", str(cube_obj), "--method", "zheng-bilateral",
               "--output", str(tmp_path / "o.obj"),
               "--report", str(tmp_path / "r.json"))
    assert code == 2


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
