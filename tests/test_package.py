"""The package's public names: what ``sps/__init__.py`` imports is what
``sps.__all__`` exports; the layering of its modules; and the one place
of each check."""

import ast
import re
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


def _sps_imports(path):
    """The names of the ``sps`` modules that the module at ``path`` imports,
    relatively (``from .bloch import``, ``from . import oracle``) or not."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.removeprefix("sps.") for alias in node.names
                         if alias.name.startswith("sps."))
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".", "sps"):
                names.update(alias.name for alias in node.names)
            elif module.startswith((".", "sps.")):
                names.add(module.removeprefix("sps.").lstrip("."))
    return names


def test_layering():
    imports = {path.stem: _sps_imports(path)
               for path in Path(sps.__file__).parent.glob("*.py")}
    assert {"physparams", "reservoir", "cli"} <= imports.keys()
    assert [name for name, used in imports.items()
            if "cli" in used and name != "cli"] == []
    for base in ("physparams", "reservoir"):
        assert imports[base].isdisjoint({"bloch", "spectrum", "oracle"}), base


#: Exception name -> the text by which a message of it reads like a range
#: check.  A ConfigError may say that a section "must be present".
_RANGE_FORMS = {"ValueError": re.compile(" must be "),
                "ConfigError": re.compile(" must be (>|one of)")}


def _range_messages(path):
    """The literal text of each ``raise ValueError(...)`` or
    ``raise ConfigError(...)`` in the module at ``path`` that reads like a
    range check."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and node.exc.func.id in _RANGE_FORMS):
            text = "".join(part.value for arg in node.exc.args
                           for part in ast.walk(arg)
                           if isinstance(part, ast.Constant)
                           and isinstance(part.value, str))
            if _RANGE_FORMS[node.exc.func.id].search(text):
                found.append(f"{path.name}:{node.lineno}: {text}")
    return found


def test_one_range_check():
    # reservoir._check_rule writes every "<name> must be <rule>" error.
    found = [message for path in Path(sps.__file__).parent.glob("*.py")
             if path.name != "reservoir.py"
             for message in _range_messages(path)]
    assert found == []
