"""Smoke tests for the demo scripts under scripts/ and the README's quickstarts."""
import importlib.util
import shlex
from pathlib import Path

from rpcsp.cli import build_parser

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


def test_readme_cli_quickstart_commands_parse():
    # Each command of the first sh block after the CLI quickstart heading,
    # continuation lines joined, parsed by the CLI's parser and not run.
    text = (ROOT / "README.md").read_text()
    block = text.split("## Quickstart (CLI)")[1].split("```sh\n")[1].split("```")[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.strip()]
    assert commands and all(argv[0] == "rpcsp" for argv in commands)
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # an unknown flag or bad value exits with SystemExit
