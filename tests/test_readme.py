"""The README's "Library use" examples run against the package namespace,
every name a submodule's __all__ lists exists and has a caller, every
import in the package and its tests is used, and CI's by-name test
selection names tests that exist."""

import ast
import contextlib
import importlib
import io
import pathlib
import re

import pytest

import pegstress

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
MODULES = ["cli", "engine", "mechanism", "parallel", "prices", "renewal", "rounds", "speculator", "theory"]


def library_blocks():
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_use_blocks_run():
    blocks = library_blocks()
    assert len(blocks) == 2
    namespace = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for block in blocks:  # the second block uses the first one's config
            exec(compile(block, str(README), "exec"), namespace)
    assert re.fullmatch(r"closed form: 227 steps, simulated: 2\d\d\n", printed.getvalue())
    assert len(namespace["depleted_at"]) == 1000


def test_namespace_is_the_documented_surface():
    # The names the examples import, plus the two the README's prose names.
    imported = re.search(r"from pegstress import \((.*?)\)", library_blocks()[0], re.S).group(1)
    documented = {name.strip() for name in imported.split(",") if name.strip()}
    assert set(pegstress.__all__) == documented | {"NoTradeInterval", "SimResult"}
    assert all(hasattr(pegstress, name) for name in pegstress.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_module_all_names_resolve(module):
    # A name deleted from a module but left in its __all__ fails here.
    mod = importlib.import_module(f"pegstress.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def loaded_names(tree):
    """Names a module loads (a Name, an Attribute or an import alias),
    leaving out each top-level def's or class's loads of its own name."""
    names = set()
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        names.discard(own)  # a recursive call or a method naming its class
    return names


def test_module_all_names_have_a_caller():
    # Public API that nothing calls is dead weight: a name a submodule's
    # __all__ lists must be loaded somewhere in src/pegstress/ outside its
    # own def or class, or be named by the benchmark in perfbench/.
    used = set()
    for path in (ROOT / "src" / "pegstress").glob("*.py"):
        used |= loaded_names(ast.parse(path.read_text()))
    bench = "\n".join(path.read_text() for path in (ROOT / "perfbench").glob("*.py"))
    uncalled = [
        f"{module}.{name}"
        for module in MODULES
        for name in importlib.import_module(f"pegstress.{module}").__all__
        if name not in used and not re.search(rf"\b{name}\b", bench)
    ]
    assert uncalled == []


def test_every_import_is_loaded():
    # An imported name that its module never loads is dead, unless the module
    # re-exports it in __all__.  The stdlib ast does the scan, so the lint
    # needs no dependency.
    unused = []
    for path in sorted([*(ROOT / "src" / "pegstress").glob("*.py"), *(ROOT / "tests").glob("*.py")]):
        tree = ast.parse(path.read_text())
        keep = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]:
                keep |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in keep:
                        unused.append(f"{path.relative_to(ROOT)}: {name}")
    assert unused == []


def test_ci_profile_step_names_existing_tests():
    # The "Every-step oracle properties, ci profile" step picks its properties
    # by name with -k, so a renamed one would drop out of the 500-example run
    # without an error.  Each " or " term must be part of the name of a
    # def test_... in the files that step collects.
    step = WORKFLOW.read_text().split("- name: Every-step oracle properties, ci profile\n", 1)[1]
    command = next(line for line in step.splitlines() if "-m pytest" in line)
    files = re.findall(r"\btests/\w+\.py\b", command)
    terms = re.search(r'-k "([^"]*)"', command).group(1).split(" or ")
    tests = {
        node.name
        for path in files
        for node in ast.walk(ast.parse((ROOT / path).read_text()))
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    }
    assert files and terms
    assert [term for term in terms if not any(term in name for name in tests)] == []
