"""The benchmark's traced runs wrap gravimean functions by name.

perfbench/child.py lists every (module, attribute) it wraps in TRACED and
looks each one up with getattr, so a traced run fails if a refactor drops or
renames one of them.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return [(module, attr) for module, attr, _ in child.TRACED
            if module.startswith("gravimean.")]


@pytest.mark.parametrize("module, attr", traced_targets())
def test_traced_target_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))
