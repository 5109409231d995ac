"""Each demo runs to the end on the current library, from a copy in a
temporary folder so that what it writes stays there."""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["kernel_gallery", "mesh_denoise_walkthrough",
                                  "pointcloud_pipeline"])
def test_demo_runs(name, tmp_path, capsys):
    script = tmp_path / f"{name}.py"
    shutil.copy(DEMOS / script.name, script)
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out
    assert any(path.is_file() for path in (tmp_path / "out").rglob("*"))
