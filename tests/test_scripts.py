"""Smoke tests for the demo scripts under scripts/ and the README's API quickstart."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_refutation_demo_runs_and_its_planted_control_is_sound(capsys):
    demo = _load("refutation_demo")
    assert demo.main(["--n", "12", "--trials", "1", "--multipliers", "1,10"]) == 0
    out = capsys.readouterr().out
    assert "sound: True" in out


def test_readme_api_quickstart_prints_true_twice(capsys):
    # The first python block after the API quickstart heading, run as written.
    text = (ROOT / "README.md").read_text()
    block = text.split("## Quickstart (API)")[1].split("```python\n")[1].split("```")[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.split() == ["True", "True"]
