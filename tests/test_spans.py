"""The benchmark's span tracer still fits the package's functions."""

import importlib.util
import sys
from pathlib import Path

from latticeepr import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "lithium.ini"


def load_spans(monkeypatch):
    """perfbench/spans.py as a module, without adding perfbench to sys.path.
    Its dataclasses look their module up in sys.modules, so it is listed
    there until the test ends."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_counter_records_its_counts(tmp_path, monkeypatch):
    # a renamed function or a changed signature would otherwise fail only
    # the benchmark's traced runs
    spans = load_spans(monkeypatch)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for command in ("dist", "protocol", "spectrum"):
            out = tmp_path / command
            assert cli.main(["--config", str(CONFIG), "--out", str(out), command]) == 0
    finally:
        tracer.uninstall()
    recorded = tracer.collect()
    for name in spans.COUNTERS:
        counted = [span.counts for span in recorded if span.name == name]
        assert counted, f"{name} was not traced"
        assert all(counted), f"{name} recorded no counts"
