"""The runtime imports nothing outside the standard library.

A fresh interpreter with only ``src`` on its path imports every entry
point a process starts from (the CLI, the facade, the daemon, the
client, tenants, the registry and the pool) and lists the top-level
modules that import added.  Each must be part of the standard library
or the program itself: the tests may use pytest, hypothesis and scipy,
the program may not.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ENTRY_POINTS = [
    "repro.cli",
    "repro.api",
    "repro.service.app",
    "repro.service.client",
    "repro.tenants",
    "repro.registry",
    "repro.parallel",
]

# Compared against what the interpreter already holds, since
# site-packages may import modules of its own at startup (.pth files).
PROBE = """
import json, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    __import__(name)
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps(sorted(added)))
"""

#: ``__mp_main__`` is multiprocessing's alias for ``__main__``.
ALLOWED = set(sys.stdlib_module_names) | {"repro", "__mp_main__"}


def test_runtime_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", PROBE, *ENTRY_POINTS], env=env,
        capture_output=True, text=True, check=True)
    added = json.loads(result.stdout)
    assert "repro" in added
    assert [name for name in added if name not in ALLOWED] == []
