#!/usr/bin/env python3
"""Import cost of the fedgbt modules, each in a fresh interpreter.

    python3 scripts/import_footprint.py [module ...]

For each module under ``src/fedgbt`` (or only the named ones, without
``.py``) prints the wall time of ``import fedgbt.<module>`` in ms and the
interpreter's peak resident set (``ru_maxrss``) in MB after it.  The first
row, ``none``, is an interpreter that imports nothing.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PROBE = """import resource, sys, time
t = time.perf_counter()
if sys.argv[1] != "none":
    __import__("fedgbt." + sys.argv[1])
ms = (time.perf_counter() - t) * 1e3
print(f"{ms:.1f} {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f}")
"""


def main(argv: list[str]) -> int:
    names = argv or [p.stem for p in sorted((SRC / "fedgbt").glob("[!_]*.py"))]
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    width = max(len(n) for n in ["module", *names])
    print(f"{'module':<{width}}  {'ms':>7}  {'MB':>6}")
    for name in ["none", *names]:
        ms, mb = subprocess.run([sys.executable, "-c", PROBE, name], check=True, text=True,
                                capture_output=True, env={**os.environ, "PYTHONPATH": path}
                                ).stdout.split()
        print(f"{name:<{width}}  {ms:>7}  {mb:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
