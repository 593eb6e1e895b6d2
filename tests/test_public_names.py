"""Every name a faceverify module exports exists and has a caller, and
every setting has a program caller.

Tools that wrap a module's public functions walk its __all__ with
getattr, so a name left there after its definition is gone breaks them.
A public name that nothing in the program or its benchmark uses is
either wired into a real path or deleted.  Likewise a setting (a
dataclass field or a parameter with a default) that only the tests set
is a constant.
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(getattr(d, "id", getattr(d, "attr", "")) == "dataclass" for d in decorators)


def _settings(tree) -> list[tuple[str, str, int | None, tuple[int, int]]]:
    """(owner, name, position, definition lines) for every dataclass field
    with a default and every parameter with a default in the module tree.
    The owner is the name a caller calls: the class for a field or an
    __init__ parameter, the function otherwise.  position is the index a
    positional argument takes (self not counted), None for keyword-only."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields = [f for f in child.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
                    lines = (child.lineno, child.end_lineno)
                    found.extend((child.name, f.target.id, k, lines) for k, f in enumerate(fields) if f.value)
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(getattr(d, "id", "") == "staticmethod" for d in child.decorator_list)
                bound = cls is not None and not static
                owner = cls if bound and child.name == "__init__" else child
                lines = (owner.lineno, owner.end_lineno)
                args = child.args
                positional = (args.posonlyargs + args.args)[int(bound) :]
                first = len(positional) - len(args.defaults)
                found.extend((owner.name, a.arg, k, lines) for k, a in enumerate(positional) if k >= first)
                found.extend(
                    (owner.name, a.arg, None, lines) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d
                )
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return found


def _setters(tree) -> tuple[list, list]:
    """(line, callee, keyword names, positional count) for every call, and
    (line, value) for every string constant, in the module tree."""
    calls, strings = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            calls.append((node.lineno, callee, {k.arg for k in node.keywords}, len(node.args)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            strings.append((node.lineno, node.value))
    return calls, strings


def _unset(sources: list[Path], programs: list[Path]) -> set[str]:
    """'owner.name' of every setting defined in sources that no file of
    programs sets outside the setting's own definition: no call to the
    owner passes it by keyword or by position, and no string constant
    (a field -> flag or config-section table that feeds a ** call)
    equals its name."""
    setters = {path: _setters(ast.parse(path.read_text(encoding="utf-8"))) for path in programs}

    def is_set(home, owner, name, position, lines):
        def outside(path, line):
            return path != home or not lines[0] <= line <= lines[1]

        return any(
            outside(path, line) and callee == owner and (name in keywords or position is not None and count > position)
            for path, (calls, _) in setters.items()
            for line, callee, keywords, count in calls
        ) or any(
            outside(path, line) and value == name
            for path, (_, strings) in setters.items()
            for line, value in strings
        )

    return {
        f"{owner}.{name}"
        for home in sources
        for owner, name, position, lines in _settings(ast.parse(home.read_text(encoding="utf-8")))
        if not is_set(home, owner, name, position, lines)
    }


# 'owner.name' of settings that no program path sets -> why each stays.
UNSET: dict[str, str] = {}


def _check_settings(unset: set[str], exempt: dict[str, str]) -> None:
    assert not unset - exempt.keys(), f"only tests set these; make each a constant: {sorted(unset - exempt.keys())}"
    stale = sorted(exempt.keys() - unset)
    assert not stale, f"a program path sets these now, or they are gone: drop them from UNSET: {stale}"


def test_every_setting_has_a_program_caller():
    programs = [path for path in SOURCES if "tests" not in path.relative_to(ROOT).parts]
    _check_settings(_unset(sorted((ROOT / "src").rglob("*.py")), programs), UNSET)


def test_setting_scan_sees_keywords_positions_and_names(tmp_path):
    lib = tmp_path / "lib.py"
    lib.write_text(
        "@dataclass(frozen=True)\nclass C:\n    a: int\n    b: int = 1\n    c: int = 2\n    d: int = 3\n"
        "    def check(self):\n        return 'd'\n\n"
        "class K:\n    def __init__(self, x, y=0):\n        pass\n    def m(self, z=0, *, w=1):\n        pass\n\n"
        "def f(p, q=0, r=1):\n    return f(p, r=2)\n"
    )
    app = tmp_path / "app.py"
    app.write_text("C(0, 1)\nK(0, 1)\nk.m(w=2)\nf(0, 1)\nTABLE = {'c': 'flag'}\n")
    assert _unset([lib], [lib, app]) == {"C.d", "m.z", "f.r"}
    assert _unset([lib], [lib]) == {"C.b", "C.c", "C.d", "K.y", "m.z", "m.w", "f.q", "f.r"}
    _check_settings({"C.d"}, {"C.d": "reason"})
    with pytest.raises(AssertionError, match=r"drop them from UNSET: \['f.q'\]"):
        _check_settings({"C.d"}, {"C.d": "reason", "f.q": "reason"})


def test_only_perfbench_reads_network_spec():
    """`Network.spec` is the network itself, kept for perfbench/ alone;
    the program and its tests read the network's own attributes."""
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    readers = [str(path.relative_to(ROOT)) for path in files if any(name == "spec" for name, _ in _uses(path))]
    assert not readers, f"these read an attribute named spec: {readers}"


def test_walk_finds_the_modules():
    assert {"faceverify.evaluation", "faceverify.templates", "faceverify.micronet.layers"} <= set(MODULES)
