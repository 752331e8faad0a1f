"""Run the steps of the CI workflow locally, verbatim, and report each one.

Usage, from anywhere in a source checkout:

    python tools/run_ci.py [path/to/workflow.yml]

The workflow (by default .github/workflows/tests.yml) is parsed with PyYAML.
Each job's steps run in order from the root of the checkout: every `run:`
script goes to `bash -e`, as a runner's default shell, with the job's and
then the step's `env` on top of this process's environment and RUNNER_TEMP
set to a fresh temporary directory.  Steps that `uses:` an action, and steps
that install packages with pip, are reported as skipped: the interpreter
that runs this script is the one under test, first on PATH as `python`.  One
line is printed per step; a failed step's output is kept in a log file named
on its line (the temporary directory is removed when every step passed).
The exit status is 1 if any step failed, else 0.
"""

from __future__ import annotations

import os
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


def run_workflow(workflow: Path) -> int:
    spec = yaml.safe_load(workflow.read_text())
    temp = Path(tempfile.mkdtemp(prefix="run_ci-"))
    failed = 0
    for job_name, job in spec["jobs"].items():
        deadline = time.monotonic() + 60 * job.get("timeout-minutes", 360)
        for number, step in enumerate(job["steps"], 1):
            name = f"{job_name} / {step.get('name', f'step {number}')}"
            reason = _skip_reason(step)
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
