"""The library stays pure standard-library Python with no runtime dependencies."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import fdlab

PACKAGE = Path(fdlab.__file__).parent


def test_library_imports_only_the_standard_library() -> None:
    """Every absolute import in ``src/fdlab`` names a standard-library module
    or ``fdlab`` itself."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "fdlab" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno}: {name}")
    assert not foreign, foreign
