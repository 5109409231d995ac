"""The benchmark's three workloads, and the instrumentation of a traced job.

Each workload writes its inputs from a seed and gives the ``denoisekit``
argv of one job. Traced and untraced jobs both run ``denoisekit.cli.main``
on that argv. For a traced job, ``instrument`` swaps the public layer
functions that ``cli`` and ``pipeline`` call through module-level names
for wrappers that open a span and update the job's counters, so the spans
follow whatever the program does. The harness checks that traced and
untraced jobs write byte-identical outputs.

Importing this module imports ``denoisekit``, so the harness puts the
checkout's ``src`` on ``sys.path`` and caps threads first.
"""

from __future__ import annotations

import inspect
import json
import os
from contextlib import contextmanager

import numpy as np

from denoisekit import bench, cli, pipeline
from denoisekit.meshcore import TriMesh, save_mesh
from denoisekit.meshfilter import guidance_normals
from denoisekit.pointcloud import PointCloud, save_xyz

QUALITY_FIELDS = ("mean_angular_error_deg", "mean_vertex_distance",
                  "relative_volume_change")

# bytes one neighbour pair touches per filter pass: two int64 indices, two
# gathered float64 normals, and the argument, range and spatial weights
MESH_PAIR_BYTES = 2 * 8 + 2 * 24 + 3 * 8
# per kNN pair: index, distance, weight, gathered normal and gathered point
CLOUD_PAIR_BYTES = 3 * 8 + 2 * 24


def new_counts() -> dict:
    counts = dict.fromkeys(("faces_loaded", "bytes_read", "bytes_written",
                            "filter_passes", "vertex_iters", "zero_weight_warnings",
                            "pca_points", "point_passes", "point_iters",
                            "empty_neighborhoods"), 0)
    counts["filtered"] = {}  # method -> (mesh, spec) of its filter_normals call
    return counts


def mesh_working_set(mesh: TriMesh) -> int:
    """Bytes of mesh arrays plus the per-pass neighbour-pair arrays."""
    pairs = len(mesh.faces) + sum(len(a) for a in mesh.face_adjacency_vertex)
    return (len(mesh.vertices) * 24 + len(mesh.faces) * (24 + 56)
            + pairs * MESH_PAIR_BYTES)


# ----------------------------------------------------------------------
# instrumentation: what a traced job records about each layer call.
# A counter gets the call's bound arguments, its result and the span.

def _read_mesh(c, a, result, span):
    c["faces_loaded"] += len(result.faces)
    c["bytes_read"] += os.path.getsize(a["path"])


def _wrote_mesh(c, a, result, span):
    c["bytes_written"] += os.path.getsize(a["path"])


def _filtered(c, a, result, span):
    spec = a["spec"]
    span.tag = spec.method
    c["filter_passes"] += spec.iterations
    c["zero_weight_warnings"] += result.zero_weight_warnings
    c["filtered"][spec.method] = (a["mesh"], spec)


def _updated_vertices(c, a, result, span):
    c["vertex_iters"] += len(a["mesh"].vertices) * a["iterations"]


def _pca(c, a, result, span):
    c["pca_points"] += len(a["cloud"])


def _filtered_points(c, a, result, span):
    c["point_passes"] += len(a["cloud"]) * a["spec"].iterations


def _updated_points(c, a, result, span):
    # with a spec, update_point_positions runs spec.iterations
    iters = a["spec"].iterations if a["spec"] is not None else a["iterations"]
    c["point_iters"] += len(a["cloud"]) * iters
    c["empty_neighborhoods"] += result[1]


# (module, name it is called by, span name, counter)
TARGETS = (
    (cli, "load_mesh", "meshcore.load_mesh", _read_mesh),
    (cli, "save_mesh", "meshcore.save_mesh", _wrote_mesh),
    (cli, "load_xyz", "pointcloud.load_xyz", None),
    (cli, "save_xyz", "pointcloud.save_xyz", None),
    (cli, "denoise_mesh", "pipeline.denoise_mesh", None),
    (cli, "denoise_cloud", "pipeline.denoise_cloud", None),
    (bench, "compare", "bench.compare", None),
    (bench, "make_shape", "bench.make_shape", None),
    (bench, "add_noise", "bench.add_noise", None),
    (pipeline, "filter_normals", "meshfilter.filter_normals", _filtered),
    (pipeline, "update_vertices", "vertexupdate.update_vertices", _updated_vertices),
    (pipeline, "TriMesh", "meshcore.TriMesh", None),
    (pipeline, "estimate_normals_pca", "pointcloud.estimate_normals_pca", _pca),
    (pipeline, "filter_point_normals", "pointfilter.filter_point_normals",
     _filtered_points),
    (pipeline, "update_point_positions", "pointfilter.update_point_positions",
     _updated_points),
    (pipeline, "PointCloud", "pointcloud.PointCloud", None),
)


def _spanned(fn, tracer, name, job, counts, count):
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        with tracer.span(name, job) as span:
            result = fn(*args, **kwargs)
        if count is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            count(counts, bound.arguments, result, span)
        return result
    return wrapper


@contextmanager
def instrument(tracer, job: str, counts: dict):
    """Within the block, every call in TARGETS opens a span of ``job``."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TARGETS]
    try:
        for (module, attr, name, count), (_, _, fn) in zip(TARGETS, saved):
            setattr(module, attr, _spanned(fn, tracer, name, job, counts, count))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def mesh_probes(tr, filtered: dict) -> dict:
    """Off-path calls on the mesh and specs a traced job filtered with."""
    if not filtered:
        return {"pairs": 0}
    mesh, spec = next(iter(filtered.values()))
    with tr.span("meshcore.neighbor_lists", "probe", probe=True):
        pairs = sum(len(n) for n in mesh.neighbor_lists(spec.neighborhood))
    with tr.span("meshcore.vertex_mean_curvature", "probe", probe=True):
        mesh.vertex_mean_curvature()
    with tr.span("meshfilter.guidance_normals", "probe", probe=True):
        guidance_normals(mesh, spec.neighborhood, spec.guidance_threshold)
    x = np.random.Generator(np.random.Philox(key=0)).uniform(1e-6, 2.0, pairs)
    with np.errstate(all="ignore"):
        for _, spec in filtered.values():
            with tr.span("kernels.weight", "probe", probe=True,
                         tag=spec.range_kernel.kind):
                spec.range_kernel.weight(x)
    return {"pairs": pairs}


def _report_quality(path) -> dict:
    report = json.loads(path.read_text())
    return {"report": {f: report[f] for f in QUALITY_FIELDS}}


# ----------------------------------------------------------------------

class MeshDenoiseLarge:
    name = "mesh-denoise-large"
    outputs = ("out.obj", "report.json")
    n = 30

    def make_inputs(self, seed, d):
        truth = bench.make_shape("cube", n=self.n)
        noisy = bench.add_noise(truth, 0.3, seed)
        save_mesh(truth, d / "truth.obj")
        save_mesh(noisy, d / "noisy.obj")
        return noisy

    def argv(self, seed, inputs, out):
        return ["denoise", "--input", inputs / "noisy.obj", "--output", out / "out.obj",
                "--method", "yadav-tukey-2018", "--sigma", "1.0",
                "--iters", "20", "--vertex-iters", "30",
                "--ground-truth", inputs / "truth.obj", "--report", out / "report.json"]

    def quality(self, out):
        return _report_quality(out / "report.json")

    def working_set(self, noisy):
        return mesh_working_set(noisy)


class MeshSweepSmall:
    name = "mesh-sweep-small"
    outputs = ("summary.csv", "ground_truth.obj", "noisy.obj",
               *(f"{m}.{ext}" for m in cli.EXPERIMENT_METHODS for ext in ("obj", "json")))
    n = 10

    def make_inputs(self, seed, d):
        return None  # `experiment` generates its own shape and noise

    def argv(self, seed, inputs, out):
        return ["--threads", "2", "experiment", "--preset", "cube", "--n", str(self.n),
                "--noise", "0.3", "--seed", str(seed), "--methods", "all", "--out", out]

    def quality(self, out):
        lines = (out / "summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        rows = {}
        for line in lines[1:]:
            vals = dict(zip(header, line.split(",")))
            rows[vals["method"]] = {f: float(vals[f]) for f in QUALITY_FIELDS}
        return rows

    def working_set(self, _):
        return mesh_working_set(bench.make_shape("cube", n=self.n))


class CloudDenoise:
    name = "cloud-denoise"
    outputs = ("out.xyz", "report.json")
    points = 5000
    k = 12

    def make_inputs(self, seed, d):
        # add_noise draws from Philox(key=seed); offset the key so the sphere
        # samples and the noise come from different streams
        rng = np.random.Generator(np.random.Philox(key=seed + 2 ** 64))
        p = rng.normal(size=(self.points, 3))
        p /= np.linalg.norm(p, axis=1)[:, None]
        noisy = bench.add_noise(PointCloud(p), 0.3, seed)
        save_xyz(PointCloud(p, p), d / "truth.xyz")
        save_xyz(noisy, d / "noisy.xyz")
        return noisy

    def argv(self, seed, inputs, out):
        return ["denoise", "--input", inputs / "noisy.xyz", "--output", out / "out.xyz",
                "--method", "li-bilateral", "--sigma", "20", "--k", str(self.k),
                "--iters", "3", "--vertex-iters", "3",
                "--ground-truth", inputs / "truth.xyz", "--report", out / "report.json"]

    def quality(self, out):
        return _report_quality(out / "report.json")

    def working_set(self, _):
        return self.points * 48 + self.points * (self.k + 1) * CLOUD_PAIR_BYTES


BY_NAME = {w.name: w for w in (MeshDenoiseLarge, MeshSweepSmall, CloudDenoise)}
