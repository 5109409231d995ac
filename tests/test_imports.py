"""The CLI starts without scipy, and each command loads only the scipy it uses.

The library imports ``scipy.sparse`` inside ``graph_sum``, and
``scipy.spatial`` and ``scipy.sparse.csgraph`` inside the functions that
query a k-d tree or walk a spanning tree. So ``import denoisekit.cli`` loads
numpy only, as do the commands that never sum over a graph (make-shape,
add-noise on a mesh, metrics, kernel-table). A mesh denoise in the default
shared-vertex mode loads the sparse product alone; a cloud run then loads the
tree and graph modules. ``experiment --threads 2`` scores its rows only in
forked workers, so its parent holding ``scipy.sparse`` shows the import made
once before the fork.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from denoisekit import PointCloud, add_noise, make_cube, save_xyz

SRC = Path(__file__).resolve().parents[1] / "src"

RUN = r"""
import json
import sys

from denoisekit import cli

SHOWN = ("scipy.sparse", "scipy.spatial", "scipy.sparse.csgraph")


def show():
    print(any(m.startswith("scipy") for m in sys.modules), *(m in sys.modules for m in SHOWN))


show()
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    show()
"""


def loaded_after(tmp_path, *steps):
    """Per line, after the import and after each CLI step in one fresh process:
    whether any scipy module, ``scipy.sparse``, ``scipy.spatial`` and
    ``scipy.sparse.csgraph`` are loaded."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", RUN, json.dumps(steps)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


NONE, SPARSE, ALL = "False False False False", "True True False False", "True True True True"


def test_each_command_loads_only_the_scipy_it_uses(tmp_path):
    save_xyz(add_noise(PointCloud(make_cube(6).vertices), 0.3, 42), tmp_path / "noisy.xyz")
    small = ["--iters", "3", "--vertex-iters", "3"]
    assert loaded_after(
        tmp_path,
        ["make-shape", "--kind", "cube", "--n", "4", "--out", "truth.obj"],
        ["add-noise", "--input", "truth.obj", "--sigma-factor", "0.3", "--seed", "42",
         "--output", "noisy.obj"],
        ["metrics", "--input", "noisy.obj", "--ground-truth", "truth.obj", "--out", "m.json"],
        ["kernel-table", "--kernel", "tukey", "--out", "tukey.csv"],
        ["denoise", "--input", "noisy.obj", "--method", "yadav-tukey-2018", "--sigma", "1.0",
         *small, "--output", "mesh.obj", "--ground-truth", "truth.obj", "--report", "mesh.json"],
        ["denoise", "--input", "noisy.xyz", "--method", "li-bilateral", "--k", "8", *small,
         "--output", "cloud.xyz"],
    ) == [NONE] * 5 + [SPARSE, ALL]
    assert all((tmp_path / name).stat().st_size for name in (
        "m.json", "tukey.csv", "mesh.obj", "mesh.json", "cloud.xyz"))


def test_experiment_parent_imports_the_sparse_product_before_forking(tmp_path):
    assert loaded_after(
        tmp_path,
        ["--threads", "2", "experiment", "--preset", "cube", "--n", "4", "--noise", "0.3",
         "--seed", "42", "--methods", "yagou-mean,yadav-tukey-2018", "--iters", "2",
         "--vertex-iters", "2", "--out", "sweep"],
    ) == [NONE, SPARSE]
    assert (tmp_path / "sweep" / "summary.csv").stat().st_size
