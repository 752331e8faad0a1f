"""Every error the package raises on purpose is one of the contract's named types.

The contract: a broken input rule is a ValueError naming the field, a shape or
numerical failure is a MilacError subclass, and the CLI's own validation
raises cli._CliError (exit 1).  Python's TypeError, OverflowError and the
like never escape by a raise statement of this package.
"""

import ast
import importlib
from pathlib import Path

import pytest

import milacsim
from milacsim.cli import _CliError
from milacsim.exceptions import MilacError

MODULES = sorted(Path(milacsim.__file__).parent.glob("*.py"))


def _allowed(error) -> bool:
    return error is ValueError or error is _CliError or (isinstance(error, type) and issubclass(error, MilacError))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_raise_names_a_milac_error_a_value_error_or_the_cli_error(path):
    module = importlib.import_module(f"milacsim.{path.stem}" if path.stem != "__init__" else "milacsim")
    offending = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        # A bare raise re-raises the exception being handled.
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        named = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        try:
            error = eval(compile(ast.Expression(named), str(path), "eval"), vars(module))
        except Exception:  # a local name: not resolvable, so not one of the named types
            error = None
        if not _allowed(error):
            offending.append(f"{path.name}:{node.lineno}: raise {ast.unparse(named)}")
    assert offending == []
