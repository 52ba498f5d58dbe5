"""The README's Python examples run as written, and its sweep config builds."""

import json
import pathlib
import re

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
