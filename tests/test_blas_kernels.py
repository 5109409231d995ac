"""A run writes the same bytes under every OpenBLAS kernel.

``OPENBLAS_CORETYPE`` forces one kernel for one process. Under the kernel
OpenBLAS picks itself and under two forced ones, a subprocess runs a small
``experiment`` of every method on the cube and on the icosphere and two cloud
``denoise`` runs. The cloud carries its normals, so PCA, the one stage that
may differ by kernel, does not run. Besides the files the runs write, the
subprocess dumps every array the pipeline hands back to the CLI at full
precision, and a BLAS product that shows whether the forced kernel took hold.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from denoisekit import PointCloud, add_noise, save_xyz

SRC = Path(__file__).resolve().parents[1] / "src"
KERNELS = (None, "Haswell", "Katmai")  # None: the kernel OpenBLAS picks itself

RUN = r"""
import sys
from pathlib import Path

import numpy as np

from denoisekit import cli

out, cloud = Path(sys.argv[1]), sys.argv[2]
arrays = []
mesh_run, cloud_run = cli.denoise_mesh, cli.denoise_cloud


def denoise_mesh(*args, **kw):
    mesh, field = mesh_run(*args, **kw)
    arrays.extend([mesh.vertices, field.normals])
    return mesh, field


def denoise_cloud(*args, **kw):
    points, warnings = cloud_run(*args, **kw)
    arrays.extend([points.points, points.normals])
    return points, warnings


cli.denoise_mesh, cli.denoise_cloud = denoise_mesh, denoise_cloud
small = ["--iters", "5", "--vertex-iters", "5"]
for shape, n in (("cube", "6"), ("icosphere", "2")):
    assert cli.main(["experiment", "--preset", shape, "--n", n, "--noise", "0.3",
                     "--seed", "7", *small, "--out", str(out / shape)]) == 0
for method in ("li-bilateral", "zheng-guided-pc"):
    assert cli.main(["denoise", "--input", cloud, "--method", method, "--k", "8", *small,
                     "--output", str(out / f"{method}.xyz")]) == 0
np.save(out / "arrays.npy", np.concatenate(arrays))
rng = np.random.default_rng(0)
a, b = rng.normal(size=(2, 4096, 3))
m = rng.normal(size=(64, 64))
np.save(out.parent / f"{out.name}.probe.npy",
        np.concatenate([(a[:, None, :] @ b[:, :, None]).ravel(), (m @ m).ravel()]))
"""


def run(kernel, root, cloud):
    """The files one kernel's run writes, by relative path, and its probe; or
    None if the forced kernel cannot run on this CPU."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]))
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    out = root / (kernel or "default")
    out.mkdir()
    done = subprocess.run([sys.executable, "-c", RUN, str(out), str(cloud)], env=env,
                          capture_output=True, text=True, timeout=300)
    if done.returncode < 0 and kernel is not None:  # e.g. an instruction it lacks
        return None
    assert done.returncode == 0, done.stderr
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
             if p.is_file()}
    return files, np.load(root / f"{out.name}.probe.npy")


def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=9))
    p = rng.normal(size=(400, 3))
    sphere = p / np.linalg.norm(p, axis=1)[:, None]
    noisy = add_noise(PointCloud(sphere), 0.3, 42)
    normals = sphere + rng.normal(0.0, 0.1, size=sphere.shape)
    cloud = tmp_path / "cloud.xyz"
    save_xyz(noisy.with_normals(normals / np.linalg.norm(normals, axis=1)[:, None]), cloud)

    (files, probe), *forced = (run(kernel, tmp_path, cloud) for kernel in KERNELS)
    assert "arrays.npy" in files and "cube/summary.csv" in files
    took_hold = []
    for kernel, result in zip(KERNELS[1:], forced):
        if result is not None:
            other, other_probe = result
            assert sorted(other) == sorted(files), kernel
            assert [f for f in files if other[f] != files[f]] == [], kernel
            if not np.array_equal(other_probe, probe):
                took_hold.append(kernel)
    if not took_hold:
        pytest.skip("no forced kernel ran and changed a BLAS product on this CPU, "
                    "so the equal outputs show nothing")
