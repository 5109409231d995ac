"""No line of the library or of its tests is wider than 99 columns."""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_lines_fit_in_99_columns():
    wide = [f"{path.relative_to(ROOT)}:{n}: {len(line)} columns"
            for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if len(line) > 99]
    assert not wide, "\n".join(wide)
