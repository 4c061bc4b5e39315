"""Each demo runs to exit 0. A demo runs as a copy in ``tmp_path``, so the
files that demos 05 and 06 write beside themselves stay out of the checkout."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fneq.io import save_fvecs

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("[0-9][0-9]_*.py"))
EXTERNAL = ROOT / "demos" / "07_external_embeddings.py"


def run_demo(tmp_path, demo, *args):
    copy = tmp_path / demo.name
    shutil.copy(demo, copy)
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(copy), *args], cwd=tmp_path, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=600)


def test_demos_are_found():
    assert len(DEMOS) >= 7 and EXTERNAL in DEMOS


@pytest.mark.parametrize("demo", [d for d in DEMOS if d != EXTERNAL], ids=lambda d: d.stem)
def test_demo_exits_0(tmp_path, demo):
    done = run_demo(tmp_path, demo)
    assert done.returncode == 0, done.stderr


def test_external_embeddings_demo_exits_0_on_fvecs(tmp_path):
    rng = np.random.default_rng(0)
    save_fvecs(tmp_path / "items.fvecs", rng.normal(size=(2100, 16)))
    save_fvecs(tmp_path / "queries.fvecs", rng.normal(size=(20, 16)))
    done = run_demo(tmp_path, EXTERNAL, "items.fvecs", "queries.fvecs")
    assert done.returncode == 0, done.stderr
    assert "fuzzy2_neq" in done.stdout
