"""The tests that start ``python -m huberreg`` in a subprocess run the
package the tests import: its ``src`` directory goes first on the
subprocesses' PYTHONPATH, so a checkout needs no install to be tested."""

import os
import pathlib

import pytest

import huberreg


@pytest.fixture(autouse=True, scope="session")
def _subprocesses_import_this_package():
    src = str(pathlib.Path(huberreg.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield
