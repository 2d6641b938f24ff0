import subprocess
import sys

import pytest

from conftest import CIRCUIT_DIR, GOLDEN_DIR, REPO_ROOT, child_env

SCRIPTS = REPO_ROOT / "scripts"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, env=child_env(), cwd=REPO_ROOT)


def test_render_gallery_writes_every_svg(tmp_path):
    proc = run_script("render_gallery.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    n_circuits = len(list(CIRCUIT_DIR.glob("*.circ")))
    assert len(list(tmp_path.glob("*.svg"))) == 4 + 4 + n_circuits == 13
    for name, golden in (("bell_phi_plus", "map_bell_phi_plus"),
                         ("circuit_entangle_60_70", "run_entangle_60_70")):
        got = (tmp_path / f"{name}.svg").read_bytes()
        assert got == (GOLDEN_DIR / f"{golden}.svg").read_bytes(), name


@pytest.mark.parametrize("name", ["circuit_walkthrough.py"])
def test_script_runs(name):
    proc = run_script(name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
