"""Tests of the harness's own logic; no denoise job runs here.

Run with ``python3 -m pytest perfbench -q`` from the root of the checkout.
"""

import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Tracer  # noqa: E402


def test_self_time_subtracts_children_and_skips_probes():
    tr = Tracer()
    with tr.span("job.run", "j"):
        with tr.span("pipeline.denoise_mesh", "j"):
            with tr.span("meshfilter.filter_normals", "j"):
                time.sleep(0.02)
            time.sleep(0.01)
        with tr.span("meshcore.neighbor_lists", "j", probe=True):
            time.sleep(0.02)
    job, pipe, filt, probe = tr.spans
    selfs = tr.self_times("j")
    assert set(selfs) == {"job", "pipeline", "meshfilter"}
    assert selfs["meshfilter"] == filt.duration
    assert selfs["pipeline"] == pipe.duration - filt.duration
    assert abs(sum(selfs.values()) - (job.duration - probe.duration)) < 1e-9
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]


def test_quality_gate_uses_stated_tolerance():
    ref = {"tolerance": {"rel": 1e-3, "abs": 1e-6},
           "rows": {"report": {"mean_angular_error_deg": 2.0}}}
    assert run.quality_problems({"report": {"mean_angular_error_deg": 2.0019}}, ref) == []
    assert run.quality_problems({"report": {"mean_angular_error_deg": 2.003}}, ref)
    assert run.quality_problems({}, ref)


def test_check_outputs_flags_exit_code_non_finite_and_missing(tmp_path):
    class Workload:
        outputs = ("a.obj", "b.json", "c.json", "d.csv")

    (tmp_path / "a.obj").write_text("v 1 2 -3.5e-07\nf 1 2 3\n")
    (tmp_path / "b.json").write_text('{"max_angular_error_deg": 1.5, "information": 0}')
    (tmp_path / "c.json").write_text('{"x": NaN}')
    problems, digests = run.check_outputs(Workload, tmp_path, 1)
    assert problems == ["exit code 1", "non-finite value in c.json", "missing output d.csv"]
    assert set(digests) == {"a.obj", "b.json", "c.json"}


def test_fails_without_printing_when_the_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "cloud-denoise", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no denoisekit sources" in proc.stderr


def test_layer_metrics_take_setup_calls_from_setup_and_tag_methods():
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import new_counts

    tr = Tracer()
    for unit in ("setup-0", "setup-1", "setup-2"):
        with tr.span("setup.inputs", unit):
            with tr.span("bench.make_shape", unit):
                time.sleep(0.001)
    with tr.span("job.run", "job-1"):
        with tr.span("meshfilter.filter_normals", "job-1", tag="yadav_tukey_2018"):
            time.sleep(0.002)
    counts = {"job-1": {**new_counts(), "filter_passes": 20}}
    m = run.layer_metrics(tr, ["job-1"], ["setup-0", "setup-1", "setup-2"], counts,
                          {"pairs": 100}, overhead=0.1)
    filt = tr.spans[-1].duration
    assert m["meshfilter.yadav-tukey-2018.filter_s"] == filt
    assert m["meshfilter.zhang-guided.filter_s"] == 0
    assert m["meshfilter.us_per_pair_pass"] == filt * 1e6 / (100 * 20)
    assert m["bench.make_shape_s"] == sorted(s.duration for s in tr.spans
                                             if s.name == "bench.make_shape")[1]
    assert m["bench.add_noise_s"] == 0
    assert m["job.self_s"] == tr.spans[-2].duration - filt
    assert m["trace.overhead_s"] == 0.1


def test_traced_job_runs_the_cli_under_spans_and_restores_it(tmp_path):
    sys.path.insert(0, str(HERE.parent / "src"))
    from denoisekit import bench, cli
    from workloads import TARGETS, instrument, new_counts

    truth = bench.make_shape("cube", n=2)
    cli.save_mesh(truth, tmp_path / "truth.obj")
    cli.save_mesh(bench.add_noise(truth, 0.3, 1), tmp_path / "noisy.obj")
    originals = [getattr(module, attr) for module, attr, _, _ in TARGETS]

    def job(out, tracer=None):
        out.mkdir()
        argv = ["denoise", "--input", str(tmp_path / "noisy.obj"),
                "--output", str(out / "out.obj"), "--method", "yadav-tukey-2018",
                "--iters", "2", "--vertex-iters", "3",
                "--ground-truth", str(tmp_path / "truth.obj"),
                "--report", str(out / "report.json")]
        if tracer is None:
            return cli.main(argv)
        with instrument(tracer, "j", counts), tracer.span("cli.main", "j"):
            return cli.main(argv)

    tr, counts = Tracer(), new_counts()
    assert job(tmp_path / "plain") == 0
    assert job(tmp_path / "traced", tr) == 0
    for name in ("out.obj", "report.json"):
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "traced" / name).read_bytes())
    assert [getattr(module, attr) for module, attr, _, _ in TARGETS] == originals

    names = {s.id: s.name for s in tr.spans}
    parents = {s.name: names.get(s.parent) for s in tr.spans}
    assert parents["meshfilter.filter_normals"] == "pipeline.denoise_mesh"
    assert parents["vertexupdate.update_vertices"] == "pipeline.denoise_mesh"
    assert parents["meshcore.TriMesh"] == "pipeline.denoise_mesh"
    assert parents["pipeline.denoise_mesh"] == "cli.main"
    assert [s.name for s in tr.spans].count("meshcore.load_mesh") == 2
    filt = next(s for s in tr.spans if s.name == "meshfilter.filter_normals")
    assert filt.tag == "yadav_tukey_2018"
    assert counts["filter_passes"] == 2
    assert counts["vertex_iters"] == 3 * len(truth.vertices)
    assert counts["faces_loaded"] == 2 * len(truth.faces)
    assert counts["bytes_written"] == (tmp_path / "traced" / "out.obj").stat().st_size
    assert list(counts["filtered"]) == ["yadav_tukey_2018"]
