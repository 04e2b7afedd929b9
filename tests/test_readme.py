"""The README's quick start runs as printed."""
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    section = README.read_text().split("## Quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_prints_what_it_promises(capsys):
    namespace = {}
    exec(_quick_start(), namespace)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[1 0 0 1]"
    report = namespace["sess"].cost_report()
    assert lines[1] == str(report)
    assert (report["rounds"], report["bits_per_party"]) == (3, 2848)
