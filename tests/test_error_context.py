"""Every error that says where it came from says so through one helper.

A bad input fails naming its file, flag, key or line.  The program adds
that prefix with `storage.naming`, so the rule and its message form live
in one place; a handler elsewhere that catches a ValueError and raises
a new one formatting the caught error is a second copy of the helper.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py"))

# (file, function) of the one handler allowed to re-raise a caught ValueError with a prefix
HELPER = ("storage.py", "naming")


def _catches_value_error(handler: ast.ExceptHandler) -> bool:
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(kind, ast.Name) and kind.id == "ValueError" for kind in kinds)


def _formats(node: ast.AST, name: str) -> bool:
    """Whether node holds an f-string that formats the variable name."""
    return any(
        isinstance(part, ast.FormattedValue) and isinstance(part.value, ast.Name) and part.value.id == name
        for part in ast.walk(node)
    )


def rewraps(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each `raise ValueError(...)` inside
    an `except ValueError as e` handler whose message formats e."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for handler in ast.walk(func):
            if not (isinstance(handler, ast.ExceptHandler) and handler.name and _catches_value_error(handler)):
                continue
            for node in ast.walk(handler):
                call = node.exc if isinstance(node, ast.Raise) else None
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "ValueError"
                    and any(_formats(arg, handler.name) for arg in call.args)
                ):
                    found.append((func.name, node.lineno))
    return sorted(set(found))


def test_only_the_helper_rewraps_a_value_error():
    sites = [
        f"{path.relative_to(ROOT)}:{line} in {func}"
        for path in SOURCES
        for func, line in rewraps(path.read_text(encoding="utf-8"))
        if (path.name, func) != HELPER
    ]
    assert not sites, f"use storage.naming in place of these re-wraps: {sites}"


def test_the_scan_finds_the_helper():
    source = (ROOT / "src" / "faceverify" / HELPER[0]).read_text(encoding="utf-8")
    assert HELPER[1] in {func for func, _ in rewraps(source)}


def test_scan_sees_a_rewrap_and_skips_other_handlers():
    source = (
        "def f(p):\n"
        "    try:\n"
        "        g()\n"
        "    except (KeyError, ValueError) as exc:\n"
        "        raise ValueError(f'{p}: {exc}') from None\n"
        "def h(names):\n"
        "    try:\n"
        "        g()\n"
        "    except ValueError as exc:\n"
        "        raise ValueError(str(exc).replace('a', 'b')) from exc\n"
        "    except TypeError as exc:\n"
        "        raise ValueError(f'bad: {exc}') from exc\n"
    )
    assert rewraps(source) == [("f", 5)]
