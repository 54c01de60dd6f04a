"""The benchmark's span tracer still finds every name it wraps."""

import importlib.util
import sys
from pathlib import Path

import admitsim.policy

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses looks its module up while the module body runs
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    original = admitsim.policy.auc_se
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert admitsim.policy.auc_se is not original
    finally:
        tracer.uninstall()
    assert admitsim.policy.auc_se is original
