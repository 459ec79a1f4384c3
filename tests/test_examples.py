"""Smoke tests: every shipped example must run cleanly end to end."""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

#: (script, command-line arguments, substrings its output must contain).
#: The Fig. 1 example runs at 40 units, where it prints the same table as
#: at its default 400; the paper-claims gate replays the 400-unit slice.
EXAMPLES = [
    ("quickstart.py", (), ()),
    ("datacentre_motivation.py", ("40",), ("fragmentation CPU",)),
    ("memcached_study.py", (), ()),
    ("database_partitions.py", (), ()),
    ("failure_injection.py", (), ()),
    ("rack_scale.py", (), ()),
    ("remote_buffer_tour.py", (), ()),
    ("telemetry_scrape.py", (), ()),
]


@pytest.mark.parametrize(
    "script, args, expected", EXAMPLES, ids=[script for script, _, _ in EXAMPLES]
)
def test_example_runs_cleanly(script, args, expected):
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, script), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stdout}\n{result.stderr}"
    )
    assert result.stdout.strip(), f"{script} produced no output"
    for text in expected:
        assert text in result.stdout, f"{script} output lacks {text!r}"


def test_quickstart_reports_rtt():
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, "quickstart.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert "RTT" in result.stdout
    assert "roundtrip OK" in result.stdout
