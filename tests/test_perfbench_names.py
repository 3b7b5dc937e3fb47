"""Every function the benchmark wraps, and every uasnav name it uses,
still exists under its name, and each call it makes into one still binds.

``perfbench/`` is not collected by this suite, so a renamed or deleted
target would otherwise show up only as a failed benchmark run. The
harness's ``tracing.py`` is loaded by path and left as it is; its
``bench.py`` is only parsed.
"""

import ast
import importlib
import importlib.util
import inspect
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


BENCH = ast.parse((PERFBENCH / "bench.py").read_text())


def _bench_imports() -> dict[str, str]:
    """Each name ``bench.py`` imports from a uasnav module, with its dotted name."""
    return {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in ast.walk(BENCH)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "uasnav"
        for alias in node.names
    }


def _dotted(node: ast.AST, modules: dict[str, str]) -> str | None:
    """The dotted uasnav name an expression reads, such as
    ``uasnav.navigator.expected_landmark``; None for anything but a plain
    read of an imported name or an attribute chain off one."""
    head, _, rest = ast.unparse(node).partition(".")
    if head not in modules or not isinstance(node, (ast.Name, ast.Attribute)):
        return None
    if not rest:
        return modules[head]
    return f"{modules[head]}.{rest}" if re.fullmatch(r"[\w.]+", rest) else None  # no calls or subscripts


def _resolve(name: str):
    parts = name.split(".")
    owner = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(owner, part):  # a submodule not imported yet
            importlib.import_module(".".join(parts[:i]))
        owner = getattr(owner, part)
    return owner


def _bench_names():
    """Dotted uasnav names in ``bench.py``: each name it imports from a
    uasnav module and each attribute chain it reads off one."""
    modules = _bench_imports()
    names = set(modules.values())
    for node in ast.walk(BENCH):
        if isinstance(node, ast.Attribute) and (name := _dotted(node, modules)):
            names.add(name)
    return sorted(names)


@pytest.mark.parametrize("name", _bench_names())
def test_bench_name_resolves(name):
    _resolve(name)


def _bench_calls():
    """Each call in ``bench.py`` of a uasnav name: ``(name, positional
    count, keyword names, has a ** splat)``, with its line as the id."""
    modules = _bench_imports()
    calls = []
    for node in ast.walk(BENCH):
        if isinstance(node, ast.Call) and (name := _dotted(node.func, modules)):
            keywords = tuple(kw.arg for kw in node.keywords if kw.arg is not None)
            splat = len(keywords) < len(node.keywords)
            calls.append(pytest.param(name, len(node.args), keywords, splat, id=f"{name}@{node.lineno}"))
    return calls


@pytest.mark.parametrize("name, n_args, keywords, splat", _bench_calls())
def test_bench_call_binds(name, n_args, keywords, splat):
    # a changed signature fails here rather than in a benchmark run; a call
    # with a ** splat binds only the arguments it names
    signature = inspect.signature(_resolve(name))
    bind = signature.bind_partial if splat else signature.bind
    bind(*[None] * n_args, **dict.fromkeys(keywords))
