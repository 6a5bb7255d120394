"""The benchmark tracer installs on the library's module layout.

``perfbench/tracer.py`` wraps layer functions at every module binding and
refuses to install when a binding it requires is gone, so a renamed or
dropped import fails here rather than in a traced benchmark run.
"""
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        tracer.install()
        for name, modules in module.REQUIRED_BINDINGS.items():
            assert modules <= set(tracer.bindings[name]), name
    finally:
        tracer.uninstall()
    import tnflab.floquet

    assert not hasattr(tnflab.floquet.tnf_amplitude_transverse, "__wrapped__")
