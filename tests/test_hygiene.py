"""Source hygiene: every name a koszulkit module imports is used there,
every private helper it defines is referenced somewhere in the package,
every public function, method and class is referenced somewhere in the
package or the benchmark (a name only the tests use is test code), every
parameter default is overridden by some call in the package, its tests or
the benchmark, and no module reads the environment."""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "koszulkit"


def imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree: ast.Module):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names re-exported through __all__ count as used
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


_ENVIRONMENT_READERS = ("environ", "environb", "getenv", "getenvb")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_environment_reads(path):
    """No koszulkit module reads os.environ or calls os.getenv: a setting
    taken from the environment is a switch that no report records."""
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [node.lineno for node in ast.walk(tree)
             if (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT_READERS
                 and isinstance(node.value, ast.Name) and node.value.id == "os")
             or (isinstance(node, ast.ImportFrom) and node.module == "os"
                 and any(alias.name in _ENVIRONMENT_READERS for alias in node.names))]
    assert not reads, f"{path.name} reads the environment at lines {reads}"


def private_functions(tree: ast.Module):
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_")
                and not (node.name.startswith("__") and node.name.endswith("__"))):
            yield node.name, node.lineno


def referenced_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_dead_private_helpers():
    """Every _-prefixed function or method is referenced somewhere in the package."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    referenced = {name for tree in trees.values() for name in referenced_names(tree)}
    dead = [f"{name} ({module}, line {line})" for module, tree in trees.items()
            for name, line in private_functions(tree) if name not in referenced]
    assert not dead, f"private helpers nothing in koszulkit references: {dead}"


def public_definitions(tree: ast.Module):
    """Top-level functions and classes, and the methods of top-level classes,
    whose names do not start with an underscore."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.lineno


def traced_targets(tree: ast.Module):
    """(module, "func" or "Class.method") of each ("metric", "module",
    attribute) target that the layer tracer wraps."""
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("TIMED", "COUNTED")):
            for _metric, module, attr in ast.literal_eval(node.value):
                yield module, attr


def test_traced_targets_exist():
    """Every target of the layer tracer names an attribute of its koszulkit
    module, a method through its class: a missing one breaks a traced
    benchmark run."""
    targets = list(traced_targets(ast.parse((ROOT / "perfbench" / "layertrace.py").read_text())))
    assert targets
    missing = []
    for module, attr in targets:
        obj = importlib.import_module(f"koszulkit.{module}")
        for name in attr.split("."):
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(f"{module}.{attr}")
    assert not missing, f"layer tracer targets that koszulkit lacks: {missing}"


def test_no_dead_public_names():
    """Every public function, method and class of koszulkit is referenced
    (as a name, an attribute or an import) in src or perfbench, or is a
    target of the layer tracer.  A reference from tests/ alone does not
    count: a public name that only the tests use belongs in the tests."""
    files = [p for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    referenced = set()
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        referenced.update(referenced_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
        if path.name == "layertrace.py":
            referenced.update(name for _module, attr in traced_targets(tree)
                              for name in attr.split("."))
    dead = [f"{name} ({path.name}, line {line})" for path in sorted(SRC.glob("*.py"))
            for name, line in public_definitions(ast.parse(path.read_text()))
            if name.rsplit(".", 1)[-1] not in referenced]
    assert not dead, f"public names nothing references: {dead}"


def self_assignments(tree: ast.Module):
    """(class, attribute, line) for each ``self.<attribute> = ...`` in the
    methods of the module's classes."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for target in targets:
                for t in ast.walk(target):
                    if (isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                            and t.value.id == "self"):
                        yield cls.name, t.attr, t.lineno


def test_no_write_only_attributes():
    """Every attribute a koszulkit class assigns on self is read as an
    attribute somewhere in src, tests or perfbench."""
    files = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    read = {node.attr for path in files
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted({f"{cls}.{attr} ({path.name}, line {line})"
                     for path in sorted(SRC.glob("*.py"))
                     for cls, attr, line in self_assignments(ast.parse(path.read_text()))
                     if attr not in read})
    assert not unread, f"attributes assigned on self and never read: {unread}"


def defaulted_parameters(tree: ast.Module):
    """(callee name, parameter, call position or None, line) for each
    parameter with a default of the module's functions and methods.  The
    callee name of ``__init__`` is its class's; the call position of a
    method's parameter does not count ``self``; a keyword-only parameter has
    no call position."""
    owner = {id(item): node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for item in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(id(node))
        name = cls.name if cls is not None and node.name == "__init__" else node.name
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        shift = 1 if cls is not None and not static else 0
        positional = node.args.posonlyargs + node.args.args
        for k, arg in enumerate(positional[len(positional) - len(node.args.defaults):],
                                len(positional) - len(node.args.defaults)):
            yield name, arg.arg, k - shift, arg.lineno
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None, arg.lineno


def test_no_unpassed_defaults():
    """Every parameter with a default in koszulkit is passed by some call in
    src, tests or perfbench: by keyword, by position, or through *args or
    **kwargs.  Calls are matched by callee name (the class name for
    ``__init__``); a default that no call overrides is a knob nobody turns."""
    files = [p for d in ("src", "tests", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    calls = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {kw.arg for kw in node.keywords}
            calls.setdefault(name, []).append((len(node.args), starred, keywords))
    unpassed = [f"{name}: {param} ({path.name}, line {line})"
                for path in sorted(SRC.glob("*.py"))
                for name, param, position, line in defaulted_parameters(ast.parse(path.read_text()))
                if not any(param in keywords or None in keywords or starred
                           or (position is not None and n_args > position)
                           for n_args, starred, keywords in calls.get(name, []))]
    assert not unpassed, f"parameters whose default no call overrides: {unpassed}"
