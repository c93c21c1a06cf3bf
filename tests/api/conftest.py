"""Fixtures shared by the API tests that need a live HTTP server."""

import threading

import pytest

from repro.api import ReliabilityService
from repro.serve import create_server


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
