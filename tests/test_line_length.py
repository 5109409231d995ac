"""No line of the library, its tests or its demos is wider than 99 columns."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("src", "tests", "demos")


def test_lines_fit_in_99_columns():
    wide = [f"{path.relative_to(ROOT)}:{n}: {len(line)} columns"
            for path in sorted(p for d in CHECKED for p in ROOT.glob(f"{d}/**/*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if len(line) > 99]
    assert not wide, "\n".join(wide)
