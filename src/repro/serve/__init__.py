"""HTTP serving layer over the :mod:`repro.api` facade (stdlib-only).

Start one from the CLI (``repro serve --dataset lastfm --scale small``)
or programmatically::

    from repro.api import ReliabilityService
    from repro.serve import create_server

    service = ReliabilityService.from_dataset("lastfm", "tiny", seed=7)
    server = create_server(service, port=0)  # port 0 picks a free port
    server.serve_forever()
"""

from repro.serve.server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    MAX_BODY_BYTES,
    MAX_BODY_ENV_VAR,
    ReliabilityHTTPServer,
    ReliabilityRequestHandler,
    create_server,
    max_body_bytes,
    serve,
)

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "MAX_BODY_BYTES",
    "MAX_BODY_ENV_VAR",
    "ReliabilityHTTPServer",
    "ReliabilityRequestHandler",
    "create_server",
    "max_body_bytes",
    "serve",
]
