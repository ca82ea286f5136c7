"""The names the benchmark's tracer wraps still exist in the program.

``benchmark/workloads.instrument`` fetches every attribute it wraps when it
registers the wrappers, and installs none of them, so deleting a wrapped
name fails this test and not only a traced benchmark run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_instrument_finds_every_wrapped_name():
    workloads.instrument(tracer.Tracer(), workloads.Checks())
