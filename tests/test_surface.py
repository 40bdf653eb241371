"""Every definition in ``ginfo`` is reached by a command, a battery or the benchmark,
and every one that only a battery reaches is a route of ``selftest.BATTERIES``.

A name closure over the syntax trees. The roots are every name that the
benchmark (``bench/*.py``) uses and every name used by the code that runs
when a ``ginfo`` module is imported, which holds ``cli.COMMANDS`` (with the
``main`` entry point) and ``selftest.BATTERIES``. A reached function or
method adds the names its body uses; a reached class adds those of its
class-level statements and its dunder methods. Imports are not uses. Public
and private definitions are checked alike; only dunders, which Python calls,
are exempt. The package ``ginfo`` itself defines only ``__version__``; every
name is imported from its module.

A battery builds its inputs inline. So a definition that a battery body names
and that no command reaches (the closure of ``cli`` without the selftest
command) must be a route or a second route of a ``BATTERIES`` entry, or be
reached from one; the ``randmat`` generators, which only draw inputs, are
exempt.

Limitation: names are resolved by their bare spelling, without types or
scopes, so two definitions that share a name are reached together. A
property used on one class counts as used on every class that defines one of
the same name. The check can therefore miss an unused definition, but never
flags a used one.
"""

import ast
import functools
import re
from pathlib import Path

import ginfo
from ginfo import selftest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ginfo"


def _names(*nodes) -> set[str]:
    """Every name and attribute spelled in ``nodes``."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for node in nodes for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _uses(node) -> set[str]:
    """The names a reached definition uses."""
    if isinstance(node, ast.FunctionDef):
        return _names(node)
    body = [stmt for stmt in node.body if not _is_def(stmt) or _is_dunder(stmt.name)]
    return _names(*node.decorator_list, *node.bases, *body)


@functools.cache
def _definitions() -> tuple[dict[str, list], frozenset[str]]:
    """Each ginfo definition by name, as ``(module:line, node)``, and the names
    used by module-level code."""
    definitions: dict[str, list] = {}
    roots: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not _is_def(node):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    roots |= _names(node)
                continue
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for member in [node, *filter(_is_def, methods)]:
                where = f"{path.relative_to(ROOT)}:{member.lineno}"
                definitions.setdefault(member.name, []).append((where, member))
    return definitions, frozenset(roots)


def _reach(roots, definitions) -> set[str]:
    """Every name used by the closure of ``roots`` over ``definitions``."""
    reached: set[str] = set()
    queue = list(roots)
    while queue:
        name = queue.pop()
        if name not in reached:
            reached.add(name)
            queue.extend(use for _, node in definitions.get(name, ()) for use in _uses(node))
    return reached


def _in(module: str, definitions) -> dict[str, list]:
    """The definitions of ``module`` alone."""
    where = f"src/ginfo/{module}.py:"
    return {name: kept for name, found in definitions.items()
            if (kept := [entry for entry in found if entry[0].startswith(where)])}


def _without(module: str, definitions) -> dict[str, list]:
    """The definitions outside ``module``."""
    own = _in(module, definitions)
    return {name: found for name, found in definitions.items() if name not in own}


def unreached() -> list[str]:
    """``module:line name`` of each non-dunder definition that no root reaches."""
    definitions, roots = _definitions()
    for path in sorted((ROOT / "bench").glob("*.py")):
        roots |= _names(ast.parse(path.read_text()))
    reached = _reach(roots, definitions)
    return sorted(f"{where} {name}" for name, found in definitions.items()
                  if not _is_dunder(name) and name not in reached for where, _ in found)


def _routes() -> set[str]:
    return {route.__name__ for entry in selftest.BATTERIES
            for route in (entry.route, entry.second) if route is not None}


def _command_reach(definitions) -> set[str]:
    """What the commands other than selftest reach, from ``cli``'s module-level code."""
    body = ast.parse((SRC / "cli.py").read_text()).body
    roots = _names(*(node for node in body
                     if not _is_def(node) and not isinstance(node, (ast.Import, ast.ImportFrom))))
    others = {name: found for name, found in _without("selftest", definitions).items()
              if name != "_run_selftest"}
    return _reach(roots | {"main"}, others)


def test_every_public_definition_is_reached():
    missing = [entry for entry in unreached() if not entry.split()[-1].startswith("_")]
    assert not missing, ("public, but no command, battery or benchmark reaches it:\n"
                         + "\n".join(missing))


def test_every_private_definition_is_reached():
    # a helper whose last caller went stays behind unless this fails
    missing = [entry for entry in unreached() if entry.split()[-1].startswith("_")]
    assert not missing, ("private, and no command, battery or benchmark reaches it:\n"
                         + "\n".join(missing))


def test_every_definition_a_battery_names_is_a_route():
    # a definition that only builds a battery's inputs is no route, and goes
    definitions, _ = _definitions()
    own = _in("selftest", definitions)
    named = _reach({entry.check.__name__ for entry in selftest.BATTERIES}, own) - set(own)
    others = _without("selftest", definitions)
    exempt = set(_in("randmat", definitions))
    missing = sorted(named & set(others) - _command_reach(definitions)
                     - _reach(_routes(), others) - exempt)
    assert not missing, ("a battery names it, but no command reaches it and it is no "
                         "route:\n" + "\n".join(missing))


def test_every_route_is_reached_by_a_command_or_a_second_route():
    definitions, _ = _definitions()
    others = _without("selftest", definitions)
    seconds = {entry.second.__name__ for entry in selftest.BATTERIES if entry.second is not None}
    reached = _command_reach(definitions) | _reach(seconds, others)
    assert sorted(_routes() - reached) == []


def test_each_battery_reaches_the_routes_it_names():
    definitions, _ = _definitions()
    wrong = [entry.check.__name__ for entry in selftest.BATTERIES
             if not {route.__name__ for route in (entry.route, entry.second) if route}
             <= _reach({entry.check.__name__}, definitions)]
    assert wrong == []


def test_package_defines_only_its_version():
    # ``ginfo`` is a namespace of its modules: a docstring and ``__version__``, nothing more
    body = ast.parse((SRC / "__init__.py").read_text()).body
    assert [type(node) for node in body] == [ast.Expr, ast.Assign]
    assert [target.id for target in body[1].targets] == ["__version__"]
    # read without tomllib, which Python 3.10 lacks
    toml = (ROOT / "pyproject.toml").read_text()
    project = toml.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert ginfo.__version__ == re.search(r'^version = "(.+)"$', project, re.M).group(1)
