"""Every module-level import of a package module is used in that module, and
importing the CLI loads no standard module that only a crash or a class
decorator would need."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import diskhall

MODULES = sorted(p for p in pathlib.Path(diskhall.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_level_imports_are_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_cli_import_leaves_out_dataclasses_inspect_and_traceback():
    # every CLI run is a fresh process, so these ~16 ms of imports would be
    # paid by each one; -S keeps site's own imports out of the count
    src = pathlib.Path(diskhall.__file__).parent.parent
    code = ("import sys, diskhall.cli; "
            "print(sorted({'dataclasses', 'inspect', 'traceback'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
