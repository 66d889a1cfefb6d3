import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def load_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def _backends():
    from qrcensus import _purekernel

    impls = [pytest.param(_purekernel, id="pure")]
    try:
        from qrcensus import _speedups

        impls.append(pytest.param(_speedups, id="compiled"))
    except ImportError:
        pass
    return impls


@pytest.fixture(params=_backends())
def backend(request):
    """Each available kernel backend in turn."""
    return request.param


@pytest.fixture
def small_chunks(monkeypatch):
    """small_chunks(size, every=4096) sets the chunk size and the checkpoint
    cadence that laws.sweep reads when it is called: small values run the
    merge, pool and checkpoint logic on short ranges."""
    from qrcensus import laws

    def set_sizes(size, every=laws.DEFAULT_CHECKPOINT_EVERY):
        monkeypatch.setattr(laws, "DEFAULT_CHUNK", size)
        monkeypatch.setattr(laws, "DEFAULT_CHECKPOINT_EVERY", every)

    return set_sizes
