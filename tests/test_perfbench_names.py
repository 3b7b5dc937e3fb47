"""Every function the benchmark wraps still exists under its name.

``perfbench/`` is not collected by this suite, so a renamed or deleted
target would otherwise show up only as a failed benchmark run. The
harness's ``tracing.py`` is loaded by path and left as it is.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return [(home, attr) for home, attr, *_ in module.TARGETS]


@pytest.mark.parametrize("home, attr", _targets())
def test_target_resolves(home, attr):
    owner = importlib.import_module(f"uasnav.{home}")
    if "." in attr:  # a method, patched on the class itself
        cls_name, attr = attr.split(".")
        owner = vars(owner)[cls_name]
    assert callable(vars(owner)[attr])
