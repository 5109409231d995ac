"""A mesh run loads neither scipy's k-d tree nor its graph module.

Only point clouds and the mesh radius mode query a k-d tree, and only the
PCA orientation walks a spanning tree, so the library imports
``scipy.spatial`` and ``scipy.sparse.csgraph`` inside the functions that use
them. A fresh process imports the CLI and denoises a mesh in the default
shared-vertex mode, scored against its ground truth, and finds neither module
loaded; a cloud run in the same process then loads both and writes its file.
"""

import os
import subprocess
import sys
from pathlib import Path

from denoisekit import PointCloud, add_noise, make_cube, save_mesh, save_xyz

SRC = Path(__file__).resolve().parents[1] / "src"

RUN = r"""
import sys

from denoisekit import cli

LAZY = ("scipy.spatial", "scipy.sparse.csgraph")
mesh, truth, cloud, out = sys.argv[1:]
small = ["--iters", "3", "--vertex-iters", "3"]
print(*[m in sys.modules for m in LAZY])
assert cli.main(["denoise", "--input", mesh, "--method", "yadav-tukey-2018", "--sigma", "1.0",
                 *small, "--output", out + "/mesh.obj", "--ground-truth", truth,
                 "--report", out + "/mesh.json"]) == 0
print(*[m in sys.modules for m in LAZY])
assert cli.main(["denoise", "--input", cloud, "--method", "li-bilateral", "--k", "8", *small,
                 "--output", out + "/cloud.xyz"]) == 0
print(*[m in sys.modules for m in LAZY])
"""


def test_mesh_run_leaves_tree_and_graph_modules_unloaded(tmp_path):
    truth = make_cube(4)
    save_mesh(truth, tmp_path / "truth.obj")
    save_mesh(add_noise(truth, 0.3, 42), tmp_path / "noisy.obj")
    save_xyz(add_noise(PointCloud(make_cube(6).vertices), 0.3, 42), tmp_path / "noisy.xyz")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", RUN, *(str(tmp_path / name) for name in
                           ("noisy.obj", "truth.obj", "noisy.xyz")), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    # after the import, after the mesh run, after the cloud run
    assert done.stdout.split("\n") == ["False False", "False False", "True True", ""]
    assert all((tmp_path / name).stat().st_size for name in ("mesh.obj", "mesh.json",
                                                              "cloud.xyz"))
