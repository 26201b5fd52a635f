"""Importing the package loads only the scipy modules the library runs.

Nothing in the library calls ``scipy.integrate``, which brings
``scipy.optimize`` and ``scipy.special`` along and costs about 0.4 s per
process; ``fastpath.solve_ivp`` loads it only when read. The check reads
``sys.modules`` in a fresh interpreter rather than timing the import, so it
does not depend on the machine's load."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FRESH_IMPORT = """
import sys
sys.path.insert(0, {src!r})
import dephchain, dephchain.cli
loaded = [name for name in ("scipy.integrate", "scipy.optimize", "scipy.special")
          if name in sys.modules]
assert not loaded, f"importing dephchain loaded {{loaded}}"
import scipy.integrate
assert dephchain.fastpath.solve_ivp is scipy.integrate.solve_ivp
try:
    dephchain.fastpath.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("fastpath.no_such_name did not raise AttributeError")
"""


def test_import_loads_no_integrate_optimize_or_special():
    done = subprocess.run([sys.executable, "-c", FRESH_IMPORT.format(src=str(ROOT / "src"))],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
