"""The benchmark's span tracer (``perfbench/tracer.py``) still finds every
entry point and counted module it wraps: one it cannot resolve is reported
as an absent metric by a traced benchmark run."""
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_finds_every_entry_point():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
    finally:
        tracer.uninstall()
