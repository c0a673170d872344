"""The quick demos run to completion (04 takes longer; run it by hand)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", [
    "01_synthetic_corpus.py", "02_autodiff_and_model.py",
    pytest.param("03_pretrain_and_probe.py", marks=pytest.mark.slow),
    pytest.param("05_analysis_protocols.py", marks=pytest.mark.slow)])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
