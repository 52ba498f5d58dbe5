"""The README's Python examples and CLI walkthrough run as written, and its
sweep config builds."""

import json
import pathlib
import re
import shlex
import subprocess
import sys

from huberreg.experiments import SweepSpec

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_sweep_configs_build():
    blocks = _blocks("json")
    assert blocks
    for block in blocks:
        SweepSpec.from_dict(json.loads(block))


def test_readme_cli_block_runs(tmp_path):
    """Every command of the CLI walkthrough exits 0, run in order in one
    directory holding the README's sweep config and a small M.csv."""
    (block,) = [b for b in _blocks("sh") if re.search(r"^huberreg ", b, re.M)]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(ln) for ln in lines if ln.strip() and not ln.startswith("#")]
    assert len(commands) > 1 and all(argv[0] == "huberreg" for argv in commands)
    (tmp_path / "sweep.json").write_text(_blocks("json")[0])
    (tmp_path / "M.csv").write_text("1,2,0\n0,1,3\n")
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "huberreg", *argv[1:]], cwd=tmp_path,
                              capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr)
