"""The package's public names: what ``sps/__init__.py`` imports is what
``sps.__all__`` exports."""

import ast
from pathlib import Path

import sps


def test_imports_equal_all():
    tree = ast.parse(Path(sps.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    assert imported == set(sps.__all__)
    assert len(sps.__all__) == len(set(sps.__all__))
