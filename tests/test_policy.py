"""Every tolerance is a fixed constant of ``ginfo.policy``."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import ginfo
from ginfo import policy

SRC = Path(ginfo.__file__).parent


def _public_callables():
    modules = [ginfo] + [importlib.import_module(f"ginfo.{info.name}")
                         for info in pkgutil.iter_modules(ginfo.__path__)]
    seen = {}
    for module in modules:
        for name, obj in vars(module).items():
            if name.startswith("_") or not getattr(obj, "__module__", "").startswith("ginfo"):
                continue
            if callable(obj):
                seen[f"{obj.__module__}.{obj.__qualname__}"] = obj
            if inspect.isclass(obj):
                for attr, member in inspect.getmembers(obj, inspect.isroutine):
                    if not attr.startswith("_"):
                        seen[f"{obj.__module__}.{obj.__qualname__}.{attr}"] = member
    return seen


def test_no_callable_takes_a_policy_or_a_tolerance():
    offenders = []
    for qualname, obj in _public_callables().items():
        try:
            parameters = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        offenders += [(qualname, p) for p in parameters
                      if p == "policy" or p.endswith("_tol")]
    assert offenders == []


def test_tolerance_literals_live_in_policy():
    # the batteries of selftest print their own test bounds
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("policy.py", "selftest.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0.0 < abs(node.value) <= 1e-8):
                found.append((path.name, node.lineno, node.value))
    assert found == []


def test_policy_holds_only_float_constants():
    public = {name: value for name, value in vars(policy).items() if not name.startswith("_")}
    assert public
    assert all(name.isupper() and type(value) is float for name, value in public.items())
