"""The workflow's "Command line through sys.argv" step, run as the CI runner
runs a bash step: with ``-e`` and ``pipefail``, from the checkout, with
``RUNNER_TEMP`` naming a fresh directory."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEP = "Command line through sys.argv"


def step_script(workflow: str, name: str) -> str:
    """The ``run: |`` block of the step named name: the lines indented past
    the ``run:`` key, up to the first line that is not, less their common
    indent."""
    lines = workflow.splitlines()
    start = lines.index(next(line for line in lines if line.strip() == f"- name: {name}"))
    run = next(i for i in range(start + 1, len(lines)) if lines[i].strip() == "run: |")
    key_indent = len(lines[run]) - len(lines[run].lstrip())
    body = []
    for line in lines[run + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= key_indent:
            break
        body.append(line)
    indent = min(len(line) - len(line.lstrip()) for line in body if line.strip())
    return "\n".join(line[indent:] for line in body) + "\n"


def test_the_step_extracts_whole():
    script = step_script(WORKFLOW.read_text(), STEP)
    assert script.startswith('export PYTHONPATH="$PWD/src"\nbench="$PWD/bench"\ncd "$RUNNER_TEMP"\n')
    assert "expect 2 cocone badpinv.json pd.json\n" in script
    assert "- name:" not in script


def test_the_command_line_step_passes(tmp_path):
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("bash is not installed")
    script = tmp_path / "step.sh"
    script.write_text(step_script(WORKFLOW.read_text(), STEP))
    runner_temp = tmp_path / "runner"
    runner_temp.mkdir()
    bin_dir = tmp_path / "bin"  # `python` is the interpreter running the tests
    bin_dir.mkdir()
    (bin_dir / "python").symlink_to(sys.executable)
    env = {**os.environ, "RUNNER_TEMP": str(runner_temp),
           "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"}
    result = subprocess.run(
        [bash, "--noprofile", "--norc", "-eo", "pipefail", str(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
