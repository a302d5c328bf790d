"""The Python processes a test starts import ``tcnsoc`` from this checkout's
``src``, as the tests themselves do (``pythonpath`` in pyproject.toml), so
the suite runs whether or not the package is installed."""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_subprocess_path():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", _SRC, prepend=os.pathsep)
        yield
