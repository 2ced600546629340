"""Set-up cost of one ``nematiclab`` invocation, measured in a fresh process.

    python3 perfbench/setup_probe.py CONFIG.ini [CONFIG.ini ...]

Imports the command-line module (which loads numpy, scipy and every module
the CLI dispatches to), parses and validates each config, and prints the
seconds this took.  ``run.py`` starts it several times and reports the median
as ``setup_s``.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import nematiclab.cli  # noqa: E402,F401
from nematiclab.config import load_config  # noqa: E402

for path in sys.argv[1:]:
    load_config(Path(path))

print(repr(time.perf_counter() - t0))
