"""What importing the package costs, checked without timing anything.

Every CLI call and every benchmark set-up imports dsopmin, so no class
in src/ is made by code generation at import (see boolfn's module
docstring): these tests keep dataclasses, named tuples and the modules
they load out of the import.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the class factories whose code generation runs at import, and their module
GENERATED = {"dataclass", "dataclasses", "make_dataclass", "namedtuple", "NamedTuple"}


def test_import_loads_neither_dataclasses_nor_inspect():
    # -I -S: no site packages or .pth files, so only the import below loads
    # modules; -B: no bytecode written into src/
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import dsopmin; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_no_generated_classes_in_src():
    found = []
    for path in sorted((SRC / "dsopmin").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] in GENERATED]
    assert found == []
