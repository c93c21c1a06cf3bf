"""Fixtures shared by the API tests that need a live HTTP server."""

import threading

import pytest

from repro.api import ReliabilityService
from repro.engine.batch import WORKERS_ENV_VAR
from repro.serve import create_server


@pytest.fixture(scope="module", autouse=True)
def _golden_recording_is_of_the_default_configuration(request):
    """``golden_wire.json`` was recorded with ``REPRO_ENGINE_WORKERS`` unset.

    Worker count can never change an estimate, but it does change one
    honest report: ``/v1/update`` says ``"pool": "respawned"`` when the
    service had built a pool.  The CI leg that runs the whole suite under
    ``REPRO_ENGINE_WORKERS=2`` must replay the recording as recorded.
    """
    if not request.module.__name__.endswith("test_wire_golden"):
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(WORKERS_ENV_VAR, raising=False)
        yield


@pytest.fixture(scope="module")
def tiny_server():
    """A real in-process server over a fresh lastfm/tiny service (seed 3)."""
    service = ReliabilityService.from_dataset("lastfm", "tiny", seed=3)
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    service.close()
    thread.join(timeout=5)
