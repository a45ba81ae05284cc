"""The runtime stays standard-library only.

Every module under `src/charpgeom` may import the standard library and
charpgeom itself, nothing else; sympy and hypothesis are test-only oracles.
"""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "charpgeom"


def _imported_roots(tree):
    """The top-level package of every absolute import in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    allowed = set(sys.stdlib_module_names) | {"charpgeom"}
    foreign = {(str(path.relative_to(SRC)), root)
               for path in modules
               for root in _imported_roots(ast.parse(path.read_text()))
               if root not in allowed}
    assert not foreign
