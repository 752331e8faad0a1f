"""Run the steps of the CI workflow locally, verbatim, and report each one.

Usage, from anywhere in a source checkout:

    python tools/run_ci.py [path/to/workflow.yml]

The workflow (by default .github/workflows/tests.yml) is parsed with PyYAML.
Each job's steps run in order from the root of the checkout: every `run:`
script goes to `bash -e`, as a runner's default shell, with the job's and
then the step's `env` on top of this process's environment and RUNNER_TEMP
set to a fresh temporary directory.  Steps that `uses:` an action, and steps
that install packages with pip, are reported as skipped: the interpreter
that runs this script is the one under test, first on PATH as `python`.
When a skipped pip step pins a version (`numpy==1.24.*`) that this
interpreter's package does not have, the rest of that job is skipped too,
with both versions named: its steps would not test what the job is for.  One
line is printed per step; a failed step's output is kept in a log file named
on its line (the temporary directory is removed when every step passed).
The exit status is 1 if any step failed, else 0.
"""

from __future__ import annotations

import fnmatch
import importlib.metadata
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _skip_reason(step: dict) -> str | None:
    if "uses" in step:
        return f"uses {step['uses']}"
    if "run" not in step:
        return "no run script"
    if "pip install" in step["run"]:
        return "installs packages"
    return None


def _unmet_pins(script: str) -> list[str]:
    """One "needs numpy==1.24.*, have numpy 2.4.6" per `package==version` pin of
    a pip script that the installed package does not meet (a trailing .*
    matches any release with that prefix, as in pip)."""
    unmet = []
    for package, wanted in re.findall(r"([A-Za-z0-9_.-]+)==([A-Za-z0-9_.*+!-]+)", script):
        try:
            have = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            have = "none"
        if not (fnmatch.fnmatchcase(have, wanted) or have + ".*" == wanted):
            unmet.append(f"needs {package}=={wanted}, have {package} {have}")
    return unmet


def run_workflow(workflow: Path) -> int:
    spec = yaml.safe_load(workflow.read_text())
    temp = Path(tempfile.mkdtemp(prefix="run_ci-"))
    failed = 0
    for job_name, job in spec["jobs"].items():
        deadline = time.monotonic() + 60 * job.get("timeout-minutes", 360)
        unmet = []
        for number, step in enumerate(job["steps"], 1):
            name = f"{job_name} / {step.get('name', f'step {number}')}"
            reason = _skip_reason(step)
            if reason == "installs packages":
                unmet += _unmet_pins(step["run"])
            elif reason is None and unmet:
                reason = "; ".join(unmet)
            if reason is not None:
                print(f"skip  {name} ({reason})", flush=True)
                continue
            env = {**os.environ, **{k: str(v) for k, v in {**job.get("env", {}), **step.get("env", {})}.items()}}
            env["PATH"] = os.path.dirname(sys.executable) + os.pathsep + env.get("PATH", "")
            env["RUNNER_TEMP"] = str(temp / "runner")
            Path(env["RUNNER_TEMP"]).mkdir(exist_ok=True)
            script = temp / f"{job_name}-step-{number}.sh"
            script.write_text(step["run"])
            log = temp / f"{job_name}-step-{number}.log"
            start = time.monotonic()
            with open(log, "w") as out:
                try:
                    code = subprocess.run(
                        ["bash", "-e", str(script)], cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT,
                        timeout=max(1.0, deadline - start),
                    ).returncode
                except subprocess.TimeoutExpired:
                    code = "timeout"
            took = time.monotonic() - start
            if code == 0:
                print(f"pass  {name} ({took:.1f} s)", flush=True)
            else:
                failed += 1
                print(f"FAIL  {name} ({took:.1f} s, exit {code}; log {log})", flush=True)
    if failed:
        return 1
    shutil.rmtree(temp)
    return 0


if __name__ == "__main__":
    sys.exit(run_workflow(Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT_WORKFLOW))
