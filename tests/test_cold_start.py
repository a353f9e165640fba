"""What a fresh interpreter loads for a command.  Every CLI call pays for
the modules it imports, so `check` and the bare import load no module that
only another command, only the tests or the record classes' former
generator would use.  `-S` keeps the site hooks' imports out of the count."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NOT_ON_THE_CHECK_PATH = ("dataclasses", "inspect", "ast", "amalgam.gen", "importlib.resources")
# Runs the CLI module as `python -m` does, then lists sys.modules at exit.
PROBE = """
import atexit, runpy, sys
listing, sys.argv = sys.argv[1], ["amalgam", *sys.argv[2:]]
atexit.register(lambda: open(listing, "w").write("\\n".join(sorted(sys.modules))))
if sys.argv[1:]:
    runpy.run_module("amalgam.cli", run_name="__main__", alter_sys=True)
else:
    import amalgam.cli
"""


def modules_loaded(tmp_path, *argv) -> set[str]:
    """The modules in sys.modules when a fresh `python -S` exits after
    importing amalgam.cli (no argv) or running it on argv."""
    listing = tmp_path / "modules.txt"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-S", "-c", PROBE, str(listing), *argv],
                   cwd=tmp_path, env=env, check=True, stdout=subprocess.DEVNULL)
    return set(listing.read_text().split("\n"))


def test_import_and_check_load_no_module_they_do_not_run(tmp_path):
    imported = modules_loaded(tmp_path)
    assert "amalgam.cli" in imported
    assert not imported.intersection(NOT_ON_THE_CHECK_PATH)
    checked = modules_loaded(tmp_path, "check", "span", "--out", str(tmp_path / "out.json"))
    assert (tmp_path / "out.json").read_text().startswith("amalgamability report")
    assert not checked.intersection(NOT_ON_THE_CHECK_PATH)


def test_gen_loads_the_generators(tmp_path):
    assert "amalgam.gen" in modules_loaded(tmp_path, "gen", "poset", "3")


def test_the_test_oracles_import_first_without_a_cycle(tmp_path):
    """``oracles`` imports nothing from ``conftest``, which imports from it:
    a fresh interpreter whose first import of the two is ``oracles`` exits
    cleanly."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(tests)]))
    done = subprocess.run([sys.executable, "-B", "-c", "import oracles"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
