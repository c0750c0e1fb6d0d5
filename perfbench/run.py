#!/usr/bin/env python3
"""fedgbt benchmark: one workload per invocation, single-threaded, one
closed-loop client.

    python3 perfbench/run.py --workload hfl-paillier --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  With ``--trace 0`` the end-to-end metrics are measured
untraced; with ``--trace 1`` every layer is wrapped from outside and the
per-layer metrics are reported instead, together with the tracing overhead.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "fedgbt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fedgbt sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    from bench import main

    sys.exit(main())
