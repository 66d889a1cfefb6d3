"""The benchmark's tracer wraps qrcensus functions by module and name.

A refactor that renames or moves one of them must fail here, in the
ordinary test run, rather than stop a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import qrcensus  # noqa: F401  (the tracer patches after the package import)

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in _tracer().PATCHES])
def test_traced_entry_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def test_tracer_installs():
    # Install raises TracerError for any entry point it cannot wrap.
    tracer = _tracer().Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


# Names the benchmark reads outside PATCHES: perfbench/child.py records the
# sweep's chunk size, and the backend probe of perfbench/run.py the backend.
@pytest.mark.parametrize("source, module, attr", [
    ("child.py", "qrcensus.laws", "DEFAULT_CHUNK"),
    ("run.py", "qrcensus.kernel", "BACKEND"),
])
def test_benchmark_read_resolves(source, module, attr):
    text = (_TRACER.parent / source).read_text(encoding="utf-8")
    assert f"{module.rsplit('.', 1)[1]}.{attr}" in text
    assert hasattr(importlib.import_module(module), attr)
