"""What the benchmark in ``perfbench/`` uses of the library still exists.

The benchmark's own tests run only under ``python -m pytest perfbench``. This
file loads its ``workloads.py`` and ``spans.py`` (read-only) so that a
renamed or deleted public name, or a parameter a counter reads, fails here.
"""

import inspect
import re
import sys
import types
from pathlib import Path

from denoisekit import FilterSpec, add_noise, make_cube

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    """The module from its source, leaving no bytecode cache in perfbench."""
    path = PERFBENCH / f"{name}.py"
    module = sys.modules[f"perfbench_{name}"] = types.ModuleType(f"perfbench_{name}")
    exec(compile(path.read_text(), path, "exec"), module.__dict__)
    return module


workloads, spans = load("workloads"), load("spans")


def test_every_counter_finds_its_parameters():
    """A counter reads the bound arguments ``a["name"]`` of its call."""
    read = {}
    for module, attr, _, count in workloads.TARGETS:
        fn = getattr(module, attr)
        if count is not None:
            names = set(re.findall(r'a\["(\w+)"\]', inspect.getsource(count)))
            assert names <= set(inspect.signature(fn).parameters), (attr, names)
            read[attr] = names
    assert sorted(map(sorted, read.values())) == [
        ["cloud"], ["cloud", "iterations", "spec"], ["cloud", "spec"],
        ["iterations", "mesh"], ["mesh", "spec"], ["path"], ["path"]]


def test_probes_run_on_a_guided_spec():
    mesh = add_noise(make_cube(3), 0.3, 42)
    spec = FilterSpec.preset("zhang_guided", iterations=2)
    tracer = spans.Tracer()
    assert workloads.mesh_probes(tracer, {spec.method: (mesh, spec)})["pairs"] > 0
    assert {s.name for s in tracer.spans} == {
        "meshcore.neighbor_lists", "meshcore.vertex_mean_curvature",
        "meshfilter.guidance_normals", "kernels.weight"}
    assert workloads.mesh_working_set(mesh) > 0
