"""A fresh process that imports the library loads no heavy introspection module.

Every ``zerohecke`` command runs in a new process, so what the import pulls in
is paid on each one; ``dataclasses`` alone would bring ``inspect``, ``ast``,
``dis`` and ``tokenize``.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(f"zerohecke.{path.stem}" for path in (SRC / "zerohecke").glob("*.py")
                 if path.stem != "__init__")
UNWANTED = ("dataclasses", "inspect", "typing")


def test_importing_every_module_loads_no_introspection_module():
    assert "zerohecke.cli" in MODULES and "zerohecke.coeffs" in MODULES
    # -S: no site packages, whose start-up hooks could load these themselves
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
            f"for name in {MODULES!r}: __import__(name)\n"
            f"import json; print(json.dumps([m for m in {UNWANTED!r} if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
