"""The README's library quick start runs as written, and its lists match the program."""

import re
from pathlib import Path

import milacsim
from milacsim import MilacError, SweepSpec, write_manifest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_quick_start_runs():
    # The block holds the 1e-12 cross-check of the factored circuit blocks
    # against the dense solve, so a drift in either fails here.
    text = README.read_text(encoding="utf-8")
    assert "\n## Library quick start\n" in text
    section = text.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert block is not None, "the quick start has no python block"
    exec(compile(block.group(1), f"{README.name} (Library quick start)", "exec"), {})


def test_the_readme_lists_the_manifest_keys_in_order(tmp_path):
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(r"Its lines, in this order, are (.*?), each as `key = value`", text)
    assert listed is not None, "the README lists no manifest keys"
    spec = SweepSpec(mode="snr_sweep", snr_points_db=(0.0,), antenna_points=(4,), n_streams=2, n_trials=1)
    write_manifest(spec, tmp_path / "manifest.txt", csv_path="r.csv", workers=1)
    keys = [line.split(" = ", 1)[0] for line in (tmp_path / "manifest.txt").read_text().splitlines()]
    assert re.findall(r"`(\w+)`", listed.group(1)) == keys


def test_the_readme_names_every_exported_error_and_exit_code():
    text = README.read_text(encoding="utf-8")
    assert "\n### Errors and exit codes\n" in text
    section = text.split("\n### Errors and exit codes\n", 1)[1].split("\n#", 1)[0]
    errors = [
        name for name in milacsim.__all__
        if isinstance(getattr(milacsim, name), type) and issubclass(getattr(milacsim, name), MilacError)
    ]
    assert "MilacError" in errors and len(errors) > 1
    assert [name for name in errors if f"`{name}`" not in section] == []
    assert all(f"- `{code}`: " in section for code in (0, 1, 2))
