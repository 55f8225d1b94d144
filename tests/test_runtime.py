"""The runtime needs numpy only: scipy is a test dependency.

Each test runs in a child process, so that the modules this test session
has already imported (scipy among them) do not hide an import.
"""

import os
import subprocess
import sys

import specklewalk

SRC = os.path.dirname(os.path.dirname(os.path.abspath(specklewalk.__file__)))
CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "small.ini")
NO_SCIPY = 'import sys\nsys.modules["scipy"] = None\n'


def run_child(code: str, cwd) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_import_leaves_scipy_unloaded(tmp_path):
    child = run_child('import sys\nimport specklewalk\nassert "scipy" not in sys.modules, "scipy was imported"\n', tmp_path)
    assert child.returncode == 0, child.stderr


def test_run_full_without_scipy(tmp_path):
    code = NO_SCIPY + f"from specklewalk import load_config, run_full\nrun_full(load_config({CONFIG!r}, output_dir='.'))\n"
    child = run_child(code, tmp_path)
    assert child.returncode == 0, child.stderr
    assert (tmp_path / "report.json").is_file()


def test_cli_tomo_without_scipy(tmp_path):
    code = NO_SCIPY + f"from specklewalk import cli\nsys.exit(cli.main(['tomo', '--config', {CONFIG!r}, '--out', '.']))\n"
    child = run_child(code, tmp_path)
    assert child.returncode == 0, child.stderr
    assert "tomo: ok" in child.stdout
