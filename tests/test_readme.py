"""The README's "Library use" examples run against the package namespace,
and every name a submodule's __all__ lists exists."""

import contextlib
import importlib
import io
import pathlib
import re

import pytest

import pegstress

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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


@pytest.mark.parametrize("module", ["cli", "engine", "mechanism", "prices", "rounds", "speculator", "theory"])
def test_module_all_names_resolve(module):
    # A name deleted from a module but left in its __all__ fails here.
    mod = importlib.import_module(f"pegstress.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
