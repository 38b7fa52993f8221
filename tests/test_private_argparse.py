"""No module of the package reaches into argparse's private names.

The verb table in ``cli`` is the one declaration of every flag, and the
parser is built from it with public calls only, so nothing reads flags
back out of a parser.  Names are read from the source with ``ast``:
``argparse._X``, ``from argparse import _X``, and any ``._actions`` or
``._defaults`` attribute.
"""

import ast
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parent.parent / "src" / "tevdeg"
PARSER_INTERNALS = {"_actions", "_defaults"}


def _private_argparse_names(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            of_argparse = isinstance(node.value, ast.Name) and node.value.id == "argparse"
            if (of_argparse and node.attr.startswith("_")) or node.attr in PARSER_INTERNALS:
                found.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "argparse":
            found += [f"line {node.lineno}: import {a.name}" for a in node.names
                      if a.name.startswith("_")]
    return found


def test_scan_sees_private_names():
    source = ("import argparse\nfrom argparse import _StoreAction\n"
              "argparse._HelpAction\nparser._actions\nverb._defaults\nargparse.Namespace\n")
    assert len(_private_argparse_names(source)) == 4


@pytest.mark.parametrize("module", sorted(p.name for p in PKG.glob("*.py")))
def test_module_uses_no_private_argparse_name(module):
    assert _private_argparse_names((PKG / module).read_text()) == []
