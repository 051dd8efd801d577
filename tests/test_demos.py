"""The narrative demos run to completion as scripts.

Demo 05 (the full CLI pipeline, about half a minute) is left out; the search
it drives is covered by test_search, test_cli and the acceptance suite.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = ["01_algebra_basics.py", "02_hyperdense_layer.py",
         "03_data_and_correlations.py", "04_train_and_compare.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert not list(tmp_path.glob("hyperts_*")), "demo left temp files"
