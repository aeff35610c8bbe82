from __future__ import annotations

import os
import subprocess
import sys
import types
from pathlib import Path

import thermeval


def test_root_holds_only_the_version():
    names = [
        name
        for name, value in vars(thermeval).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert names == []
    assert thermeval.__version__ == "0.1.0"


def test_core_modules_load_without_stats_or_scipy():
    code = (
        "import sys, thermeval.coco, thermeval.metrics, thermeval.plan\n"
        "heavy = ('scipy', 'thermeval.stats', 'thermeval.synth', 'thermeval.thermal')\n"
        "print(' '.join(m for m in heavy if m in sys.modules))\n"
    )
    src = str(Path(thermeval.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == ""
