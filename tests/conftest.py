import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import koszulkit  # noqa: E402

#: every koszulkit module, as the tests here import them.  The perfbench
#: self-tests import the package afresh; a test here that ran after them
#: would mix classes from the two copies.
_MODULES = {name: importlib.import_module(name) for name in ["koszulkit"] + [
    f"koszulkit.{info.name}" for info in pkgutil.iter_modules(koszulkit.__path__)]}


@pytest.fixture(autouse=True)
def _koszulkit_as_collected():
    """Put the modules above back into ``sys.modules`` if they were replaced."""
    if any(sys.modules.get(name) is not module for name, module in _MODULES.items()):
        sys.modules.update(_MODULES)
