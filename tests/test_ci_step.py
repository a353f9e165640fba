"""``tests/cli_step.sh``, the command-line checks that need a process of
their own, run as a CI runner runs a bash step: with ``-e`` and
``pipefail``, from the checkout, with a fresh scratch directory."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SCRIPT = ROOT / "tests" / "cli_step.sh"


def test_the_command_line_runs_only_through_tier_1():
    """The workflow holds no second copy of the script: it starts no
    ``amalgam.cli`` process and defines no ``expect``."""
    workflow = WORKFLOW.read_text()
    assert SCRIPT.is_file()
    assert "amalgam.cli" not in workflow
    assert re.search(r"\bexpect\s*\(\)", workflow) is None


def test_the_command_line_step_passes(tmp_path):
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("bash is not installed")
    bin_dir = tmp_path / "bin"  # `python` is the interpreter running the tests
    bin_dir.mkdir()
    (bin_dir / "python").symlink_to(sys.executable)
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}"}
    result = subprocess.run(
        [bash, "--noprofile", "--norc", "-eo", "pipefail", str(SCRIPT), str(scratch)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-4000:]
