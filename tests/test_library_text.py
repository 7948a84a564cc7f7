"""Command-line flags are named by the command line only.

The library is called by the CLI, the demos and other programs alike, so a
message of its own that names a flag such as ``--out`` misleads every caller
but one. The CLI adds its flags to an error on its own error path.
"""

import ast
import re
from pathlib import Path

import knnavg

PACKAGE = Path(knnavg.__file__).resolve().parent
FLAG = re.compile(r"--[a-z]")


def library_strings():
    """(module:line, text) of every string constant outside ``cli.py``."""
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield f"{path.name}:{node.lineno}", node.value


def test_library_strings_name_no_cli_flag():
    strings = list(library_strings())
    assert len(strings) > 100  # the scan reached the modules
    assert [(where, text) for where, text in strings if FLAG.search(text)] == []
