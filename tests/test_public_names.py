"""Every name a faceverify module exports exists and has a caller.

Tools that wrap a module's public functions walk its __all__ with
getattr, so a name left there after its definition is gone breaks them.
A public name that nothing in the program or its benchmark uses is
either wired into a real path or deleted.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import faceverify

MODULES = sorted(
    info.name for info in pkgutil.walk_packages(faceverify.__path__, prefix="faceverify.")
)

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))

# Public names that nothing under src/ or perfbench/ calls, and why each stays.
UNCALLED: set[str] = set()


def _uses(path: Path) -> set[tuple[str, str]]:
    """(name, top-level definition it sits in) for every name that the
    file reads as a variable or an attribute; '' outside any definition."""
    uses = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = ""
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = top.name
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            owner = next((t.id for t in targets if isinstance(t, ast.Name)), "")
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                uses.add((node.id, owner))
            elif isinstance(node, ast.Attribute):
                uses.add((node.attr, owner))
    return uses


USES = {path: _uses(path) for path in SOURCES}


def _has_caller(module_name: str, attr: str) -> bool:
    """A use counts unless it sits inside the name's own definition; an
    import or a re-export is not a use."""
    module = importlib.import_module(module_name)
    obj = getattr(module, attr)
    home = getattr(obj, "__module__", module_name)
    if not home.startswith("faceverify"):
        home = module_name
    home_file = Path(importlib.import_module(home).__file__).resolve()
    return any(
        used == attr and not (path.resolve() == home_file and owner == attr)
        for path, uses in USES.items()
        for used, owner in uses
    )


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_have_a_caller(name):
    module = importlib.import_module(name)
    uncalled = [
        attr for attr in getattr(module, "__all__", ())
        if f"{name}.{attr}" not in UNCALLED and not _has_caller(name, attr)
    ]
    assert not uncalled, f"nothing under src/ or perfbench/ uses {name}.{uncalled}"


def _check_exemption(qualified):
    module_name, attr = qualified.rsplit(".", 1)
    assert hasattr(importlib.import_module(module_name), attr), f"{qualified} no longer exists: drop it from UNCALLED"
    assert not _has_caller(module_name, attr), f"{qualified} has a caller now: drop it from UNCALLED"


def test_exemptions_still_needed():
    for qualified in sorted(UNCALLED):
        _check_exemption(qualified)


def test_exemption_of_a_missing_name_says_to_drop_it():
    with pytest.raises(AssertionError, match="no_such_name no longer exists: drop it from UNCALLED"):
        _check_exemption("faceverify.metric.no_such_name")


def test_exemption_of_a_called_name_says_to_drop_it():
    with pytest.raises(AssertionError, match="similarity_matrix has a caller now: drop it from UNCALLED"):
        _check_exemption("faceverify.metric.similarity_matrix")


def test_scan_sees_a_use_and_skips_a_definition(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("def f():\n    return f\n\nX = 1\n\ndef g():\n    return X + h.y\n")
    uses = _uses(path)
    assert ("f", "f") in uses and ("X", "g") in uses and ("y", "g") in uses
    assert ("X", "X") not in uses and ("g", "") not in uses


def test_only_perfbench_reads_network_spec():
    """`Network.spec` is the network itself, kept for perfbench/ alone;
    the program and its tests read the network's own attributes."""
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    readers = [str(path.relative_to(ROOT)) for path in files if any(name == "spec" for name, _ in _uses(path))]
    assert not readers, f"these read an attribute named spec: {readers}"


def test_walk_finds_the_modules():
    assert {"faceverify.evaluation", "faceverify.templates", "faceverify.micronet.layers"} <= set(MODULES)
