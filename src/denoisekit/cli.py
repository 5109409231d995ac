"""Batch command line front-end.

Subcommands: make-shape, add-noise, denoise, metrics, kernel-table,
experiment. All runs are deterministic for a fixed argv and inputs.
``--threads N`` (default 1) lets ``experiment`` score its method rows on
min(N, rows, CPUs) worker processes started with fork; one worker runs the
rows in-process. Every output is the same for any N.

Sigma conventions: methods whose filter argument is an angle
(yadav-box-2017, tasdizen, belyaev-ohtake, li-bilateral, yadav-vnvt) take
--sigma in degrees and convert internally to radians. Methods on normal
distances take --sigma directly (a length on the unit sphere, range 0..2).
Because constant factors differ between kernels, absolute weights are not
comparable across methods.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import partial
from pathlib import Path

from . import bench
from .kernels import KERNEL_KINDS, Kernel, sample_table, samples_to_csv
from .meshcore import MeshError, NeighborhoodSpec, load_mesh, save_mesh
from .meshfilter import METHODS, POINT_METHODS, PRESET, FilterSpec
from .pipeline import denoise_cloud, denoise_mesh
from .pointcloud import PointCloud, PointCloudError, load_xyz, save_xyz

MESH_METHODS_CLI = tuple(m.replace("_", "-") for m in METHODS)
POINT_METHODS_CLI = tuple(m.replace("_", "-") for m in POINT_METHODS)

# methods whose filter argument is an angle take --sigma in degrees
ANGLE_SIGMA_METHODS = {m.replace("_", "-") for m, row in PRESET.items()
                       if row.argument in ("angle", "angle_per_distance")}

# a mesh's --neighborhood modes; experiment takes the first two, having no --radius
MESH_NEIGHBORHOODS = ("shared-vertex", "shared-edge", "radius")

# the mesh presets with a pinned kernel
EXPERIMENT_METHODS = tuple(m.replace("_", "-") for m in METHODS if PRESET[m].kind is not None)


class CliError(Exception):
    """Bad arguments; exits with status 2."""


def _load_any(path: str):
    p = Path(path)
    if not p.exists():
        raise CliError(f"input not found: {path}")
    if p.suffix.lower() == ".xyz":
        return load_xyz(p)
    return load_mesh(p)


def _save_any(obj, path: str):
    if isinstance(obj, PointCloud):
        save_xyz(obj, path)
    else:
        save_mesh(obj, path)


def _in_degrees(method: str) -> bool:
    """Whether a method, spelt with hyphens or underscores, takes --sigma in degrees."""
    return method.replace("_", "-") in ANGLE_SIGMA_METHODS


def _spec(args, methods) -> FilterSpec:
    """The spec of ``args.method``, which must be one of ``methods``."""
    method = args.method.replace("-", "_")
    if method not in methods:
        raise CliError(f"unknown method {args.method!r} for this input; "
                       f"valid: {', '.join(m.replace('_', '-') for m in methods)}")
    row = PRESET[method]
    sigma = math.radians(args.sigma) if _in_degrees(method) else args.sigma
    if row.domain == "mesh":
        if args.k is not None:
            raise CliError("--k sizes a point cloud's neighbourhood; a mesh takes none")
        mode = (args.neighborhood or "shared-vertex").replace("_", "-")
        if mode not in MESH_NEIGHBORHOODS:
            raise CliError(f"--neighborhood on a mesh is one of {', '.join(MESH_NEIGHBORHOODS)}; "
                           f"got {args.neighborhood!r}")
        nb = NeighborhoodSpec(mode.replace("-", "_"), radius=args.radius)
    elif args.neighborhood is not None:
        raise CliError("--neighborhood applies to meshes; a point cloud takes --k or --radius")
    elif args.k is not None and args.k < 1:
        raise CliError(f"--k must be >= 1, got {args.k}")
    elif args.radius is None:
        nb = NeighborhoodSpec("knn", k=args.k or 12)
    else:
        nb = NeighborhoodSpec("radius", radius=args.radius)
    kw = dict(neighborhood=nb, iterations=args.iters)
    if args.sigma_d is not None or row.spatial not in (None, "area"):
        kw["spatial_sigma"] = "auto" if args.sigma_d in (None, "auto") else float(args.sigma_d)
    if row.flavour == "gradient":
        kw["step_lambda"] = args.step_lambda
    if row.kind is None:
        kw["range_kernel"] = Kernel(args.kernel, sigma, box_floor=args.box_floor)
    return FilterSpec.preset(method, sigma=sigma, **kw)


# ----------------------------------------------------------------------
# subcommands

def _cmd_make_shape(args) -> int:
    mesh = bench.make_shape(args.kind, n=args.n, scale=args.scale)
    save_mesh(mesh, args.out)
    return 0


def _cmd_add_noise(args) -> int:
    obj = _load_any(args.input)
    noisy = bench.add_noise(obj, args.sigma_factor, args.seed)
    _save_any(noisy, args.output)
    return 0


def _cmd_denoise(args) -> int:
    if args.report and not args.ground_truth:
        raise CliError("--report needs --ground-truth")
    obj = _load_any(args.input)
    warnings = {}
    if isinstance(obj, PointCloud):
        spec = _spec(args, POINT_METHODS)
        out, wcount = denoise_cloud(obj, spec, position_iterations=args.vertex_iters,
                                    estimate_k=max(args.k or 12, 3))
        warnings["empty_neighborhoods"] = wcount
    else:
        spec = _spec(args, METHODS)
        out, field = denoise_mesh(obj, spec, vertex_iterations=args.vertex_iters,
                                  step=args.step)
        warnings["zero_weight_sums"] = field.zero_weight_warnings
    if args.report:  # scored before the first write, so a failure writes nothing
        gt = _load_any(args.ground_truth)
        report = bench.compare(gt, out, args.feature_threshold, warnings=warnings)
    _save_any(out, args.output)
    if args.report:
        Path(args.report).write_text(report.to_json() + "\n")
    return 0


def _cmd_metrics(args) -> int:
    gt = _load_any(args.ground_truth)
    cand = _load_any(args.input)
    report = bench.compare(gt, cand, args.feature_threshold)
    text = report.to_json() + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_kernel_table(args) -> int:
    kernel = Kernel(args.kernel, args.sigma, box_floor=args.box_floor)
    rows = sample_table(kernel, args.xmax, args.n)
    Path(args.out).write_text(samples_to_csv(rows))
    return 0


def _experiment_workers(threads: int, rows: int) -> int:
    """How many processes score an experiment's method rows."""
    return min(threads, rows, os.cpu_count() or 1)


def _score_row(truth, noisy, vertex_iters, step, feature_threshold, spec):
    """One experiment row: denoise the noisy mesh and score it."""
    out, field = denoise_mesh(noisy, spec, vertex_iterations=vertex_iters, step=step)
    report = bench.compare(truth, out, feature_threshold,
                           warnings={"zero_weight_sums": field.zero_weight_warnings})
    return out, report


_worker_score = None  # a worker process's scoring function, set once as it starts


def _start_worker(score) -> None:
    global _worker_score
    _worker_score = score


def _score_in_worker(spec):
    return _worker_score(spec)


def _cmd_experiment(args) -> int:
    methods = EXPERIMENT_METHODS if args.methods == "all" else \
        tuple(m.strip() for m in args.methods.split(","))
    specs = [_spec(argparse.Namespace(
        method=m, sigma=args.sigma_deg if _in_degrees(m) else args.sigma,
        sigma_d=None, neighborhood=args.neighborhood, radius=None, k=None,
        iters=args.iters, step_lambda=0.05, kernel="gaussian", box_floor=0.0), METHODS)
        for m in methods]
    truth = bench.make_shape(args.preset, n=args.n, scale=1.0)
    noisy = bench.add_noise(truth, args.noise, args.seed)
    rows = ["method," + ",".join(bench.MetricsReport.CSV_FIELDS)]
    noisy_report = bench.compare(truth, noisy, args.feature_threshold)
    rows.append("noisy," + noisy_report.to_csv_row())
    score = partial(_score_row, truth, noisy, args.vertex_iters, args.step,
                    args.feature_threshold)
    noisy.neighbor_graph(specs[0].neighborhood).slots  # every row's graph and slots, built once
    workers = _experiment_workers(args.threads, len(specs))
    if workers == 1:
        results = [score(spec) for spec in specs]
    else:  # fork: the workers inherit the modules, both meshes and the graph; only specs are sent
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        import scipy.sparse  # noqa: F401  (imported once here, not once per worker)
        with ProcessPoolExecutor(workers, mp_context=get_context("fork"),
                                 initializer=_start_worker, initargs=(score,)) as pool:
            results = list(pool.map(_score_in_worker, specs))
    rows += [f"{m}," + report.to_csv_row() for m, (_, report) in zip(methods, results)]
    # every run is scored before the first write, so a failure writes nothing
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    save_mesh(truth, outdir / "ground_truth.obj")
    save_mesh(noisy, outdir / "noisy.obj")
    for m, (out, report) in zip(methods, results):
        (outdir / f"{m}.json").write_text(report.to_json() + "\n")
        save_mesh(out, outdir / f"{m}.obj")
    (outdir / "summary.csv").write_text("\n".join(rows) + "\n")
    return 0


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="denoisekit",
                                 description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--threads", type=int, default=1,
                    help="experiment: score the method rows on min(THREADS, rows, "
                         "CPUs) forked worker processes (default 1: in-process)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-shape", help="generate a synthetic benchmark shape")
    p.add_argument("--kind", required=True, help=" | ".join(bench.SHAPE_KINDS))
    p.add_argument("--n", type=int, default=4,
                   help="vertices per edge (cube/plane/wedge) or subdivision level (icosphere)")
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_make_shape)

    p = sub.add_parser("add-noise", help="displace vertices by seeded Gaussian noise")
    p.add_argument("--input", required=True)
    p.add_argument("--sigma-factor", type=float, required=True,
                   help="noise std as a multiple of the average edge length")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(fn=_cmd_add_noise)

    p = sub.add_parser("denoise", help="two-stage denoising of a mesh or point cloud")
    p.add_argument("--input", required=True, help=".obj/.ply mesh or .xyz cloud")
    p.add_argument("--method", required=True,
                   help=f"mesh: {', '.join(MESH_METHODS_CLI)}; "
                        f"points: {', '.join(POINT_METHODS_CLI)}")
    p.add_argument("--sigma", type=float, default=0.35,
                   help="range-kernel sigma (degrees for angle-argument methods)")
    p.add_argument("--sigma-d", default=None, help="spatial sigma or 'auto'")
    p.add_argument("--kernel", default="gaussian",
                   help="kernel kind for the generic/gradient-descent methods")
    p.add_argument("--box-floor", type=float, default=0.0)
    p.add_argument("--neighborhood", default=None,
                   help=f"meshes: {' | '.join(MESH_NEIGHBORHOODS)} (default shared-vertex)")
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--k", type=int, default=None,
                   help="point clouds: kNN size (default 12); the PCA normals use max(k, 3), "
                        "at most the point count - 1")
    p.add_argument("--iters", type=int, default=20, help="normal filtering passes")
    p.add_argument("--vertex-iters", type=int, default=30,
                   help="vertex/point update iterations")
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--step-lambda", type=float, default=0.05,
                   help="gradient-descent step size")
    p.add_argument("--output", required=True)
    p.add_argument("--report", default=None, help="write a metrics JSON here")
    p.add_argument("--ground-truth", default=None)
    p.add_argument("--feature-threshold", type=float, default=70.0)
    p.set_defaults(fn=_cmd_denoise)

    p = sub.add_parser("metrics", help="compare a result against ground truth")
    p.add_argument("--input", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--feature-threshold", type=float, default=70.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser("kernel-table", help="export sampled kernel curves as CSV")
    p.add_argument("--kernel", required=True, choices=KERNEL_KINDS)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--box-floor", type=float, default=0.0)
    p.add_argument("--xmax", type=float, default=4.0)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_kernel_table)

    p = sub.add_parser("experiment", help="run the benchmark protocol across methods")
    p.add_argument("--preset", required=True,
                   choices=("cube", "plane", "icosphere", "fandisk-like"))
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--noise", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--methods", default="all")
    p.add_argument("--sigma", type=float, default=0.35)
    p.add_argument("--sigma-deg", type=float, default=30.0,
                   help="sigma for angle-argument methods, degrees")
    p.add_argument("--neighborhood", default="shared-vertex", choices=MESH_NEIGHBORHOODS[:2])
    p.add_argument("--iters", type=int, default=20)
    p.add_argument("--vertex-iters", type=int, default=30)
    p.add_argument("--step", type=float, default=1.0)
    p.add_argument("--feature-threshold", type=float, default=70.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_experiment)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        if args.threads < 1:
            raise CliError(f"--threads must be >= 1, got {args.threads}")
        return args.fn(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, MeshError, PointCloudError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
