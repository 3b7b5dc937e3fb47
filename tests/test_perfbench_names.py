"""Every function the benchmark wraps, and every uasnav name it uses,
still exists under its name.

``perfbench/`` is not collected by this suite, so a renamed or deleted
target would otherwise show up only as a failed benchmark run. The
harness's ``tracing.py`` is loaded by path and left as it is; its
``bench.py`` is only parsed.
"""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _bench_names():
    """Dotted uasnav names in ``bench.py``: each name it imports from a
    uasnav module and each attribute chain it reads off one, such as
    ``uasnav.navigator.expected_landmark``."""
    tree = ast.parse((PERFBENCH / "bench.py").read_text())
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "uasnav":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                names.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        chain = ast.unparse(node) if isinstance(node, ast.Attribute) else ""
        head, _, rest = chain.partition(".")
        if head in modules and re.fullmatch(r"[\w.]+", rest):  # plain reads, no calls or subscripts
            names.add(f"{modules[head]}.{rest}")
    return sorted(names)


@pytest.mark.parametrize("name", _bench_names())
def test_bench_name_resolves(name):
    parts = name.split(".")
    owner = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(owner, part):  # a submodule not imported yet
            importlib.import_module(".".join(parts[:i]))
        owner = getattr(owner, part)
