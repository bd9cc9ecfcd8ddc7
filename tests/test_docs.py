"""README's library quick start and every demo run as written, the README states
every size and work cap and names every solver, preset and solver parameter, and the
benchmark's modules import and pass their output checks on a tiny run, so an API or a
cap they use cannot go unnoticed."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import permqubo
from permqubo.bench import PRESETS, SOLVER_DEFAULTS, SOLVERS
from permqubo.errors import SIZE_CAPS, WORK_CAPS

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md quick start", "exec"), {})


def test_readme_states_every_size_cap():
    # the README's size-cap sentence names each errors.SIZE_CAPS row with its limit and
    # unit, so a cap that changes cannot leave the README stale
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    sentence = re.search(r"The size caps, all in one table .*?\.\s", readme).group(0)
    for limit, unit, label in SIZE_CAPS.values():
        assert f"{label} ≤ {limit} {unit}s" in sentence, (label, sentence)


def test_readme_states_every_work_cap():
    # the README's work-cap sentence states each errors.WORK_CAPS row's limit as a
    # power of two with its unit
    readme = " ".join((ROOT / "README.md").read_text(encoding="utf-8").split())
    sentence = re.search(r"The work caps \(`errors.WORK_CAPS`\) .*?few minutes of work\.",
                         readme).group(0)
    for limit, unit, _ in WORK_CAPS.values():
        power = limit.bit_length() - 1
        assert limit == 2**power and f"2^{power} {unit}s" in sentence, (unit, sentence)


@pytest.mark.parametrize("table", ["SOLVERS", "PRESETS", "SOLVER_DEFAULTS"])
def test_readme_names_every_key(table):
    # each key of bench's solver, preset and solver-parameter tables appears in the README
    # as a code span, so a solver, preset or parameter that is added cannot go undocumented
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    keys = {"SOLVERS": SOLVERS, "PRESETS": PRESETS, "SOLVER_DEFAULTS": SOLVER_DEFAULTS}[table]
    missing = [key for key in keys if f"`{key}`" not in readme]
    assert not missing, (table, missing)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # run in tmp_path, so the files a demo writes stay out of the repository
    src = str(Path(permqubo.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, check=True,
                   capture_output=True, timeout=300)


def test_benchmark_modules_import(monkeypatch, tmp_path):
    # perfbench/spans.py and perfbench/workloads.py bind package names when they are
    # imported, so a name they use that was deleted or renamed fails here.  One tiny
    # repetition of each timed workload then runs under the benchmark's output
    # capture and must pass its checks, so a change that breaks an output fails here.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    timed = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
    try:
        spans = importlib.import_module("spans")
        workloads = importlib.import_module("workloads")
        for name in (w["name"] for w in timed):
            item = workloads.setup(name, 5, True, tmp_path)[0]
            capture = spans.Capture()
            with spans.instrumented(capture):
                output = workloads.run(name, workloads.SIZES[name]["tiny"], item, tmp_path)
            outcomes = workloads.check(name, item, output, capture.take(), tmp_path)
            assert outcomes and not any(o["failures"] for o in outcomes), (name, outcomes)
    finally:
        for name in ("checks", "spans", "workloads"):
            sys.modules.pop(name, None)
