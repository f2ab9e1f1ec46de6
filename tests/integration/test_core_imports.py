"""The core is stdlib-only: importing it loads neither NumPy nor networkx.

NumPy belongs to the optional columnar executor (the ``repro[columnar]``
extra) and loads only when one is built; networkx is a test oracle.  The
check runs in a fresh interpreter, because this test process has usually
imported both already.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro

_PROBE = """
import sys
import repro.pipeline, repro.session, repro.serving
print(sorted(name for name in ("numpy", "networkx") if name in sys.modules))
"""


def test_core_import_loads_neither_numpy_nor_networkx():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    completed = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert completed.stdout.strip() == "[]"
