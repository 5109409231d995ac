#!/usr/bin/env python3
"""Benchmark for denoisekit's two-stage denoise pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mesh-denoise-large --seed 42 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all

One process runs one job at a time (a closed loop with one client). With
``--trace 0`` each job is ``denoisekit.cli.main(argv)`` and the run reports
the end-to-end metrics. With ``--trace 1`` untraced jobs alternate with
traced jobs, which run the same ``main(argv)`` with its layer calls
wrapped in spans, and the run reports the per-layer metrics. The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a results file with provenance and all job
records goes to ``.perfbench_work/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("mesh-denoise-large", "mesh-sweep-small", "cloud-denoise")
SETUP_REPS = 3                   # set-ups per run, spread over the run
RUN_SECONDS = 36                 # BENCHMARK.json's run_seconds
MIN_ROUNDS = {0: 3, 1: 1}        # untraced jobs / untraced+traced pairs
DEFAULT_SEED = 42                # the seed the quality reference was recorded at

E2E_UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
             "mae_deg": "deg", "mean_vertex_distance": "length"}
LAYERS = ("cli", "pipeline", "meshcore", "meshfilter", "vertexupdate",
          "pointcloud", "pointfilter", "bench")
NON_FINITE = re.compile(rb"(?i)\b(nan|inf(inity)?)\b")


class BenchError(Exception):
    """The benchmark cannot produce a result; exits with status 2."""


def _import_package() -> None:
    """Cap threads and import denoisekit from this checkout."""
    if not (SRC / "denoisekit" / "__init__.py").is_file():
        raise BenchError(f"no denoisekit sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = str(THREAD_CAP)
    sys.path.insert(0, str(SRC))
    import denoisekit
    import denoisekit.cli  # noqa: F401  (the entry point imports every layer)
    if Path(denoisekit.__file__).resolve().parent != SRC / "denoisekit":
        raise BenchError(f"imported {denoisekit.__file__}, not the checkout's copy")


IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import denoisekit.cli; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Seconds of ``import denoisekit.cli`` in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"import denoisekit failed: {proc.stderr.strip()}")
    return float(proc.stdout)


# ----------------------------------------------------------------------
# provenance

def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # not a git checkout; src_sha256 identifies the code
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "denoisekit").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _cache_sizes() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10,
                              env={**os.environ, "LC_ALL": "C"}).stdout
    except (OSError, subprocess.SubprocessError):
        return {"l2": None, "l3": None}
    found = dict(re.findall(r"^(L[23]) cache:\s*(.+)$", text, re.M))
    return {"l2": found.get("L2"), "l3": found.get("L3")}


def provenance(working_set_bytes: int) -> dict:
    import denoisekit
    import numpy
    import scipy
    return {
        # relative to the checkout; _import_package checked it is under src/
        "denoisekit_file": str(Path(denoisekit.__file__).resolve().relative_to(ROOT)),
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_cap": THREAD_CAP,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "working_set_bytes": working_set_bytes,
        "cache": _cache_sizes(),
    }


# ----------------------------------------------------------------------
# correctness gate

def check_outputs(workload, out: Path, rc) -> tuple[list[str], dict]:
    """Problems with one job's outputs, and the sha256 of each output."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    digests = {}
    for name in workload.outputs:
        path = out / name
        if not path.is_file():
            problems.append(f"missing output {name}")
            continue
        data = path.read_bytes()
        if NON_FINITE.search(data):
            problems.append(f"non-finite value in {name}")
        digests[name] = hashlib.sha256(data).hexdigest()
    return problems, digests


def quality_problems(rows: dict, reference: dict) -> list[str]:
    """Quality numbers outside the reference tolerance |x - ref| <= rel*|ref| + abs."""
    rel, abs_ = reference["tolerance"]["rel"], reference["tolerance"]["abs"]
    problems = []
    for row, ref_fields in reference["rows"].items():
        for field, ref in ref_fields.items():
            got = rows.get(row, {}).get(field)
            if got is None or not abs(got - ref) <= rel * abs(ref) + abs_:
                problems.append(f"{row}.{field} = {got}, reference {ref}")
    return problems


def summarize_quality(rows: dict) -> dict:
    """End-to-end quality: the mean over the denoised results (not 'noisy')."""
    results = [r for name, r in rows.items() if name != "noisy"]
    mean = lambda f: statistics.fmean(r[f] for r in results)  # noqa: E731
    return {"mae_deg": mean("mean_angular_error_deg"),
            "mean_vertex_distance": mean("mean_vertex_distance"),
            "abs_rel_volume_change": statistics.fmean(
                abs(r["relative_volume_change"]) for r in results)}


# ----------------------------------------------------------------------
# per-layer metrics from the traced jobs

def _per(seconds: float, count: int, scale: float = 1e6) -> float:
    return seconds * scale / count if count else 0.0


def layer_metrics(tracer, traced: list[str], setups: list[str], counts: dict,
                  probe: dict, overhead: float) -> dict:
    from denoisekit.cli import EXPERIMENT_METHODS

    def per_job(job):
        t = lambda name, tag=None: tracer.total(job, name, tag)  # noqa: E731
        c = counts[job]
        selfs = tracer.self_times(job)
        filt = t("meshfilter.filter_normals")
        m = {
            "meshcore.load_mesh_s": t("meshcore.load_mesh"),
            "meshcore.trimesh_s": t("meshcore.TriMesh"),
            "meshcore.load_us_per_face": _per(t("meshcore.load_mesh"), c["faces_loaded"]),
            "meshcore.save_mesh_s": t("meshcore.save_mesh"),
            "meshcore.bytes_read": c["bytes_read"],
            "meshcore.bytes_written": c["bytes_written"],
            "meshfilter.filter_normals_s": filt,
            "meshfilter.us_per_pair_pass": _per(filt, probe["pairs"] * c["filter_passes"]),
            "meshfilter.zero_weight_warnings": c["zero_weight_warnings"],
            "vertexupdate.update_vertices_s": t("vertexupdate.update_vertices"),
            "vertexupdate.us_per_vertex_iter": _per(t("vertexupdate.update_vertices"),
                                                    c["vertex_iters"]),
            "pointcloud.load_xyz_s": t("pointcloud.load_xyz"),
            "pointcloud.save_xyz_s": t("pointcloud.save_xyz"),
            "pointcloud.estimate_normals_pca_s": t("pointcloud.estimate_normals_pca"),
            "pointcloud.us_per_point_pca": _per(t("pointcloud.estimate_normals_pca"),
                                                c["pca_points"]),
            "pointfilter.filter_point_normals_s": t("pointfilter.filter_point_normals"),
            "pointfilter.us_per_point_pass": _per(t("pointfilter.filter_point_normals"),
                                                  c["point_passes"]),
            "pointfilter.update_point_positions_s": t("pointfilter.update_point_positions"),
            "pointfilter.us_per_point_iter": _per(t("pointfilter.update_point_positions"),
                                                  c["point_iters"]),
            "pointfilter.empty_neighborhoods": c["empty_neighborhoods"],
            "bench.compare_s": t("bench.compare"),
            "job.self_s": selfs.get("job", 0.0),
        }
        for method in EXPERIMENT_METHODS:
            m[f"meshfilter.{method}.filter_s"] = t("meshfilter.filter_normals",
                                                   method.replace("-", "_"))
        for layer in LAYERS:
            m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
        return m

    per = [per_job(j) for j in traced]
    out = {name: statistics.median(m[name] for m in per) for name in per[0]}
    # shape and noise generation sit in set-up, except where the job does them
    for call in ("bench.make_shape", "bench.add_noise"):
        units = [j for j in traced if tracer.total(j, call)] or setups
        out[f"{call}_s"] = statistics.median(tracer.total(u, call) for u in units)
    weights = [s for s in tracer.spans if s.name == "kernels.weight"]
    out.update({
        "meshcore.neighbor_lists_s": tracer.total("probe", "meshcore.neighbor_lists"),
        "meshcore.vertex_mean_curvature_s":
            tracer.total("probe", "meshcore.vertex_mean_curvature"),
        "meshfilter.guidance_normals_s": tracer.total("probe", "meshfilter.guidance_normals"),
        "meshfilter.pairs_per_pass": probe["pairs"],
        "kernels.weight_ns_per_pair": statistics.median(
            _per(s.duration, probe["pairs"], 1e9) for s in weights) if weights else 0.0,
        "trace.overhead_s": overhead,
    })
    return out


# ----------------------------------------------------------------------
# one run

def _run_job(argv, out, tracer=None, job=None, counts=None):
    """Run one job into ``out``; return its exit code (None if it raised)."""
    import denoisekit.cli
    from workloads import instrument
    out.mkdir()
    try:
        if tracer is None:
            return denoisekit.cli.main(argv)
        with instrument(tracer, job, counts), tracer.span("job.run", job):
            with tracer.span("cli.main", job):
                return denoisekit.cli.main(argv)
    except Exception:  # a crashing job is a failed job, not a crashed run
        traceback.print_exc()
        return None


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run of one workload: (result line, results-file record)."""
    _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import NullTracer, Tracer
    from workloads import BY_NAME, instrument, mesh_probes, new_counts
    if name not in BY_NAME:
        raise BenchError(f"unknown workload {name!r}; valid: {', '.join(BY_NAME)}")
    workload = BY_NAME[name]()
    reference = json.loads((Path(__file__).parent / "reference.json").read_text())
    tracer = Tracer() if trace else NullTracer()

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = Path(tmp)
        setups, setup_times, setup_digests = [], [], []

        def set_up():
            """One set-up: import in a fresh process, then write the inputs."""
            d = tmp / f"setup-{len(setups)}"
            d.mkdir()
            import_s = import_seconds()
            t0 = time.perf_counter()
            spanned = instrument(tracer, d.name, new_counts()) if trace else nullcontext()
            with spanned, tracer.span("setup.inputs", d.name):
                generated = workload.make_inputs(seed, d)
            setup_times.append({"import_s": import_s,
                                "inputs_s": time.perf_counter() - t0})
            setups.append(d.name)
            setup_digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                  for p in sorted(d.iterdir())})
            if setup_digests[-1] != setup_digests[0]:
                raise BenchError("input generation is not deterministic")
            return generated

        generated = set_up()
        inputs = tmp / "setup-0"

        kinds = ("untraced", "traced") if trace else ("untraced",)
        jobs, times, counts = [], {k: [] for k in kinds}, {}
        first_digest = quality = None
        filtered = {}  # the first traced job's filter inputs, for the probes
        off_reference = []
        start = time.perf_counter()
        rounds, in_loop_setup = 0, 0.0
        while True:
            for kind in kinds:
                job = f"job-{len(jobs)}"
                out = tmp / job
                argv = [str(a) for a in workload.argv(seed, inputs, out)]
                gc.collect()
                t0 = time.perf_counter()
                if kind == "traced":
                    counts[job] = new_counts()
                    rc = _run_job(argv, out, tracer, job, counts[job])
                    job_filtered = counts[job].pop("filtered")
                    filtered = filtered or job_filtered
                else:
                    rc = _run_job(argv, out)
                dt = time.perf_counter() - t0
                problems, digest = check_outputs(workload, out, rc)
                if not problems:
                    if first_digest is None:
                        first_digest = digest
                        quality = workload.quality(out)
                        if seed == DEFAULT_SEED and name in reference["workloads"]:
                            off_reference = quality_problems(
                                quality, {"tolerance": reference["tolerance"],
                                          "rows": reference["workloads"][name]})
                    if digest == first_digest:
                        problems += off_reference
                    else:
                        differ = sorted(k for k in digest if digest[k] != first_digest.get(k))
                        problems.append(f"{kind} output differs from the first untraced "
                                        f"job: {', '.join(differ)}")
                if problems:
                    print(f"FAILED {job} ({kind}): {'; '.join(problems)}", file=sys.stderr)
                jobs.append({"id": job, "kind": kind, "seconds": dt, "problems": problems})
                times[kind].append(dt)
                shutil.rmtree(out)
            rounds += 1
            # the later set-ups sit between job rounds, spread over the run as
            # the jobs are, and do not count against the jobs' time
            elapsed = time.perf_counter() - start - in_loop_setup
            while len(setups) < SETUP_REPS and elapsed >= len(setups) * seconds / SETUP_REPS:
                t0 = time.perf_counter()
                set_up()
                in_loop_setup += time.perf_counter() - t0
            next_round = sum(statistics.median(t) for t in times.values())
            if rounds >= MIN_ROUNDS[trace] and elapsed + next_round > seconds:
                break
        while len(setups) < SETUP_REPS:
            set_up()

        probe = mesh_probes(tracer, filtered) if trace else {}
        prov = provenance(workload.working_set(generated))

    failed = sum(1 for j in jobs if j["problems"])
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "provenance": prov, "jobs": jobs, "setup_times": setup_times,
              "quality": quality}
    if trace:
        overhead = statistics.median(times["traced"]) - statistics.median(times["untraced"])
        traced = [j["id"] for j in jobs if j["kind"] == "traced"]
        metrics = layer_metrics(tracer, traced, setups, counts, probe, overhead)
        units = {}
        result["spans"] = tracer.to_json()
    else:
        rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                   + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {"job_s": statistics.median(times["untraced"]),
                   "setup_s": statistics.median(t["import_s"] + t["inputs_s"]
                                                for t in setup_times),
                   "peak_rss_mb": rss_kib / 1024.0}
        if quality is not None:
            q = summarize_quality(quality)
            metrics["mae_deg"] = q["mae_deg"]
            metrics["mean_vertex_distance"] = q["mean_vertex_distance"]
            result["abs_rel_volume_change"] = q["abs_rel_volume_change"]
        units = E2E_UNITS
    result["metrics"] = metrics
    result["failed_frac"] = failed / len(jobs)

    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    line = {"correct": failed == 0 and quality is not None, "attempted": len(jobs),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units.get(k, _layer_unit(k))}
                        for k, v in metrics.items()}}
    return line, result


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "us_per_" in name:
        return "us"
    if "ns_per_" in name:
        return "ns"
    if ".bytes_" in name:
        return "B"
    return "count"


def print_table(res: dict, table: dict) -> None:
    prov = table["provenance"]
    print(f"# {table['workload']} seed={table['seed']} trace={table['trace']} "
          f"jobs={res['attempted']} failed={res['failed']} "
          f"failed_frac={table['failed_frac']:.4g}")
    print(f"# denoisekit={prov['denoisekit_file']} commit={prov['git_commit']} "
          f"src_sha256={prov['src_sha256'][:16]} python={prov['python']} "
          f"numpy={prov['numpy']} scipy={prov['scipy']} nproc={prov['nproc']} "
          f"thread_cap={prov['thread_cap']} working_set={prov['working_set_bytes']}B "
          f"L2={prov['cache']['l2']} L3={prov['cache']['l3']}")
    for k, m in res["metrics"].items():
        print(f"{k:44s} {m['value']:>16.6g} {m['unit']}")
    if "abs_rel_volume_change" in table:
        print(f"{'abs_rel_volume_change (unbounded)':44s} "
              f"{table['abs_rel_volume_change']:>16.6g} ratio")


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return merged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, help=" | ".join(WORKLOADS + ("all",)))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, help="noise seed")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS,
                    help="time budget for the job loop of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        if args.workload == "all":
            res = run_all(args.seed, args.seconds, args.trace)
        else:
            res, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
            print_table(res, record)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
