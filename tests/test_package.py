from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import thermeval


def test_root_holds_only_the_version():
    names = [
        name
        for name, value in vars(thermeval).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert names == []
    assert thermeval.__version__ == "0.1.0"


@pytest.mark.parametrize(
    "module", [m.name for m in pkgutil.iter_modules(thermeval.__path__, "thermeval.")]
)
def test_all_names_resolve_once(module):
    mod = importlib.import_module(module)
    names = list(getattr(mod, "__all__", []))
    assert [n for n in names if not hasattr(mod, n)] == []
    assert len(set(names)) == len(names)


def _loaded_after(imports: str, heavy: tuple[str, ...]) -> list[str]:
    """The modules in ``heavy`` that a fresh interpreter holds after ``imports``."""
    code = (
        f"import sys, {imports}\n"
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))\n"
    )
    src = str(Path(thermeval.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout.split()


def test_core_modules_load_without_stats_or_scipy():
    heavy = ("scipy", "thermeval.stats", "thermeval.synth", "thermeval.thermal")
    assert _loaded_after("thermeval.coco, thermeval.metrics, thermeval.plan", heavy) == []


def test_cli_report_and_stats_load_without_scipy():
    # scipy.special is imported by the statistics that call it
    assert _loaded_after("thermeval.cli, thermeval.report, thermeval.stats", ("scipy",)) == []
