"""The scripts under tools/ behave as their docstrings say."""

import importlib.metadata
import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_ci_skips_the_jobs_whose_pinned_versions_this_interpreter_lacks(tmp_path, capsys):
    # The job whose pin this interpreter meets runs its steps; the job whose
    # pin it misses reports the rest as skipped, naming both versions, and
    # so never runs the step that would fail.
    pytest.importorskip("yaml")
    run_ci = _load("run_ci")
    have = importlib.metadata.version("numpy")
    release = ".".join(have.split(".")[:2]) + ".*"
    workflow = tmp_path / "ci.yml"
    workflow.write_text(
        "jobs:\n"
        "  current:\n"
        "    steps:\n"
        "      - uses: actions/checkout@v4\n"
        "      - name: Install\n"
        f"        run: python -m pip install \"numpy=={release}\" pytest\n"
        "      - name: Check\n"
        "        run: exit 0\n"
        "  floors:\n"
        "    steps:\n"
        "      - name: Install the floors\n"
        "        run: python -m pip install \"numpy==0.1.*\" \"scipy==0.1.*\" pytest\n"
        "      - name: Check\n"
        "        run: exit 1\n"
    )
    assert run_ci.run_workflow(workflow) == 0
    scipy = importlib.metadata.version("scipy")
    lines = [" ".join(line.split()) for line in capsys.readouterr().out.splitlines()]
    assert lines[:2] == [
        "skip current / step 1 (uses actions/checkout@v4)",
        "skip current / Install (installs packages)",
    ]
    assert lines[2].startswith("pass current / Check (")
    assert lines[3:] == [
        "skip floors / Install the floors (installs packages)",
        f"skip floors / Check (needs numpy==0.1.*, have numpy {have}; needs scipy==0.1.*, have scipy {scipy})",
    ]
