from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import thermeval
from thermeval.cli import build_parser, main
from thermeval.coco import DEFAULT_SIZE_THRESHOLD, write_coco, write_detections
from thermeval.metrics import METRIC_NAMES, MetricReport
from thermeval.plan import plan_splits
from thermeval.report import RunResult, write_results_csv
from thermeval.synth import PRESET_A, PRESETS, MockDetectorSpec, build_corpus, mock_detect
from thermeval.thermal import RawFrame, write_raw


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


def _fresh_python(code: str, *args: str, cwd: Path | None = None) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports this package."""
    src = str(Path(thermeval.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, check=True, env=env, cwd=cwd,
    )
    return out.stdout


def _loaded_after(imports: str, heavy: tuple[str, ...]) -> list[str]:
    """The modules in ``heavy`` that a fresh interpreter holds after ``imports``."""
    code = (
        f"import sys, {imports}\n"
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))\n"
    )
    return _fresh_python(code).split()


def test_core_modules_load_without_stats_or_scipy():
    heavy = ("scipy", "thermeval.stats", "thermeval.synth", "thermeval.thermal")
    assert _loaded_after("thermeval.coco, thermeval.metrics, thermeval.plan", heavy) == []


def test_cli_report_and_stats_load_without_scipy():
    # the battery computes its own distribution functions: one battery takes
    # the ANOVA + Welch branch, the other Kruskal-Wallis + Dunn
    code = (
        "import sys, thermeval.cli, thermeval.report\n"
        "from thermeval.stats import SampleSet, run_battery\n"
        "for a, b in [((1, 2, 3, 4, 5), (11, 12, 13, 14, 15)),\n"
        "             ((1, 1, 1, 1, 9), (20, 20, 20, 20, 30))]:\n"
        "    r = run_battery([SampleSet('a', a), SampleSet('b', b)])\n"
        "    print(r.omnibus_method, r.pairwise[0].method)\n"
        "print('scipy' in sys.modules)\n"
    )
    assert _fresh_python(code).split() == ["anova", "welch_t", "kruskal_wallis", "dunn", "False"]


def test_the_results_tail_loads_no_numpy():
    # stats and report compute with the standard library alone
    assert _loaded_after("thermeval.stats, thermeval.report", ("numpy",)) == []


# -- what each subcommand loads

# runs ``thermeval`` as its console script does, then lists the loaded modules
_RUN_CLI = """\
import json, sys
from thermeval.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""

# the numpy-free leaf that holds the number checks and ``DatasetError``
_LEAF = "_checks"
_SCORE = (_LEAF, "coco", "metrics", "report")
_TAIL = (_LEAF, "report")
_SCENE = (_LEAF, "coco", "synth", "thermal")

# argv ({d}: the input directory) -> the thermeval modules besides the cli
# that the process loads, and whether it loads numpy and scipy (which no
# subcommand needs)
_IMPORT_PINS = {
    "version": ("--version", (), False, False),
    "help": ("--help", (), False, False),
    "convert": (
        "convert --src {d}/raw --out gray --cal-lo 0 --cal-hi 100",
        (_LEAF, "thermal"), True, False,
    ),
    "filter": ("filter --gt {d}/gt.json --out gt_f.json", (_LEAF, "coco"), False, False),
    "split": (
        "split --gt {d}/gt.json --out plan.json --k-outer 2 --k-inner 2",
        (_LEAF, "coco", "plan"), True, False,
    ),
    "synth": (
        "synth --preset b --n 2 --out gt.json --frames raw --emit-distractors d.json",
        _SCENE, True, False,
    ),
    "detect": (
        "detect --gt {d}/gt.json --out dets.json --p-fp 1 --distractors {d}/d.json",
        (_LEAF, "coco", "synth"), True, False,
    ),
    "evaluate": (
        "evaluate --gt {d}/gt.json --dets {d}/dets.json --out r.json"
        " --append results.csv --model m --hpc 4_L_p --run 1 --dataset s",
        _SCORE, True, False,
    ),
    "evaluate-out": (
        "evaluate --gt {d}/gt.json --dets {d}/dets.json --out r.json", _SCORE, True, False
    ),
    "stats": ("stats --results {d}/results.csv --metric ap", _TAIL + ("stats",), False, False),
    "report": ("report --results {d}/results.csv --out table.md", _TAIL, False, False),
    "report-figure": (
        "report --results {d}/results.csv --out table.md --figure-data figure.csv",
        _TAIL + ("stats",), False, False,
    ),
}

# the commands that load no hashlib: the cli hashes only for --manifest and
# for the GT digest that evaluate --append records in its row, and the rest
# load it only through numpy.random (split, synth, detect)
_WITHOUT_HASHLIB = (
    "version", "help", "convert", "filter", "evaluate-out", "stats", "report", "report-figure"
)


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    corpus = build_corpus(PRESET_A, n=8, seed=1)
    (d / "gt.json").write_text(write_coco(corpus.dataset))
    (d / "d.json").write_text("{}")
    dets = mock_detect(corpus.dataset, MockDetectorSpec(p_drop=0.2, p_fp=1.0), 2)
    (d / "dets.json").write_text(write_detections(dets))
    (d / "raw").mkdir()
    with open(d / "raw" / "a.raw", "wb") as fp:
        write_raw(RawFrame(np.arange(6, dtype=np.int16).reshape(2, 3)), fp)
    rng = np.random.default_rng(0)
    rows = [
        RunResult(model, "4_L_p", run, "s", MetricReport(*map(float, rng.uniform(base, 1.0, 8))))
        for model, base in (("good", 0.7), ("bad", 0.4))
        for run in range(1, 7)
    ]
    (d / "results.csv").write_text(write_results_csv(rows))
    return d


@pytest.mark.parametrize("case", list(_IMPORT_PINS))
def test_each_subcommand_loads_only_what_it_runs(case, cli_inputs, tmp_path):
    argv, modules, numpy, scipy = _IMPORT_PINS[case]
    out = _fresh_python(_RUN_CLI, *argv.format(d=cli_inputs).split(), cwd=tmp_path)
    code, loaded = json.loads(out.splitlines()[-1])
    assert code == 0
    ours = sorted(m for m in loaded if m.startswith("thermeval."))
    assert ours == sorted(["thermeval.cli"] + [f"thermeval.{m}" for m in modules])
    assert ("numpy" in loaded, "scipy" in loaded) == (numpy, scipy)
    if case in _WITHOUT_HASHLIB:
        assert "hashlib" not in loaded


def test_the_checks_leaf_loads_no_numpy_and_no_other_module():
    ours = tuple(m.name for m in pkgutil.iter_modules(thermeval.__path__, "thermeval."))
    assert _loaded_after(f"thermeval.{_LEAF}", ("numpy",) + ours) == [f"thermeval.{_LEAF}"]


def test_coco_re_exports_the_leafs_error_and_checks():
    # one object each, so an ``except coco.DatasetError`` catches what every module raises
    coco, leaf = (importlib.import_module(f"thermeval.{m}") for m in ("coco", _LEAF))
    for name in ("DatasetError", "_check_number", "_check_int", "_check_seed"):
        assert getattr(coco, name) is getattr(leaf, name), name


@pytest.mark.parametrize("case", ["stats", "report-figure"])
def test_the_battery_runs_with_scipy_unimportable(case, cli_inputs, tmp_path):
    code = 'import sys\nsys.modules["scipy"] = None\n' + _RUN_CLI
    argv = _IMPORT_PINS[case][0].format(d=cli_inputs).split()
    out = _fresh_python(code, *argv, cwd=tmp_path)
    assert json.loads(out.splitlines()[-1])[0] == 0


# argv ({d}: the input directory) -> the files the command writes
_TAIL_OUTPUTS = {
    "stats": ("stats --results {d}/results.csv --out stats.json", ("stats.json",)),
    "report-figure": (_IMPORT_PINS["report-figure"][0], ("table.md", "figure.csv")),
}


def _same_tail_files_with(blocked: tuple[str, ...], case: str, inputs: Path, tmp_path: Path):
    """Run the results-tail ``case`` as it is and with ``blocked`` unimportable;
    both runs must succeed and write the same bytes."""
    argv, names = _TAIL_OUTPUTS[case]
    block = "import sys\n" + "".join(f"sys.modules[{m!r}] = None\n" for m in blocked)
    written = []
    for code in (_RUN_CLI, block + _RUN_CLI):
        cwd = tmp_path / f"run{len(written)}"
        cwd.mkdir()
        out = _fresh_python(code, *argv.format(d=inputs).split(), cwd=cwd)
        assert json.loads(out.splitlines()[-1])[0] == 0
        written.append([(cwd / name).read_bytes() for name in names])
    assert written[0] == written[1]


@pytest.mark.parametrize("case", sorted(_TAIL_OUTPUTS))
def test_the_results_tail_writes_the_same_bytes_with_numpy_unimportable(
    case, cli_inputs, tmp_path
):
    _same_tail_files_with(("numpy",), case, cli_inputs, tmp_path)


@pytest.mark.parametrize("case", sorted(_TAIL_OUTPUTS))
def test_the_results_tail_writes_the_same_bytes_without_coco_plan_or_hashlib(
    case, cli_inputs, tmp_path
):
    blocked = ("thermeval.coco", "thermeval.plan", "hashlib")
    _same_tail_files_with(blocked, case, cli_inputs, tmp_path)


def _option(command: str, dest: str) -> argparse.Action:
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return next(a for a in subparsers.choices[command]._actions if a.dest == dest)


def test_parser_choices_match_the_modules_that_own_them():
    # the parser spells these out so that building it imports no thermeval module
    assert tuple(_option("stats", "metric").choices) == METRIC_NAMES + ("all",)
    assert list(_option("synth", "preset").choices) == sorted(PRESETS)


def test_parser_defaults_match_the_library_defaults():
    # restated in the parser for the same reason as the choices
    assert _option("filter", "threshold").default == DEFAULT_SIZE_THRESHOLD
    split = inspect.signature(plan_splits).parameters
    for dest in ("k_outer", "k_inner", "seed"):
        assert _option("split", dest).default == split[dest].default, dest
    for field in dataclasses.fields(MockDetectorSpec):
        assert _option("detect", field.name).default == field.default, field.name


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--preset", "c", "--out", "gt.json"],
        ["stats", "--results", "results.csv", "--metric", "map"],
    ],
)
def test_an_unknown_choice_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


# the hot-path modules' size budgets: growth here has to pay for itself
_LINE_BUDGETS = {"metrics.py": 514, "thermal.py": 350}


@pytest.mark.parametrize("module, budget", sorted(_LINE_BUDGETS.items()))
def test_modules_stay_within_their_line_budgets(module, budget):
    path = Path(thermeval.__file__).parent / module
    n_lines = len(path.read_text(encoding="utf-8").splitlines())
    assert n_lines <= budget, f"{module} has {n_lines} lines, over its budget of {budget}"
