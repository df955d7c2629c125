"""Smoke tests for the demo scripts under scripts/."""
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
