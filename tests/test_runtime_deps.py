"""What the library loads at import time."""

import os
import subprocess
import sys

import repro

# networkx is a test-only oracle for the path planner; the library keeps
# its state graph in plain dicts.
_IMPORTS = (
    "repro.__main__",
    "repro.testbed",
    "repro.control",
    "repro.cluster",
    "repro.resilience",
)


def test_library_imports_leave_networkx_out():
    script = (
        "import importlib, sys\n"
        f"for name in {_IMPORTS!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.partition('.')[0] == 'networkx'))\n"
    )
    source_root = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (source_root, env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    )
    assert result.stdout.strip() == "[]"
