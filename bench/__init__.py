"""One benchmark for the paper's workloads: ``python -m bench``.

``run`` measures end-to-end metrics with telemetry off, ``trace``
builds the per-layer host-time and sim-time ledger in a separate pass,
and ``compare`` judges two ``run`` reports against each metric's
regression bound. See ``bench/README.md``.

The package drives the library in ``src/`` from a plain checkout, so
importing it puts that directory on ``sys.path`` when it exists (an
installed ``repro`` or an explicit ``PYTHONPATH`` works the same way).
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if (_SRC / "repro").is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
