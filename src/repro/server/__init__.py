"""Network serving layer: ``repro serve`` and its client.

The engine so far has been embedded — every caller shares the server
process.  This package puts a socket in front of it (ROADMAP item 1):

* :mod:`repro.server.protocol` — length-prefixed frames carrying JSON
  text (the stdlib's C ``json``, with tagged forms for ``bytes`` and
  non-``str`` dict keys);
* :mod:`repro.server.server` — a socket server, one thread per
  connection, whose concurrent handlers feed writes straight into the
  engine's leader/follower group commit; a stalled engine reaches the
  client as TCP backpressure;
* :mod:`repro.server.client` — a pooled, pipelining client.

See DESIGN.md §10 for the protocol and backpressure design.
"""

from repro.server.client import Client, Pipeline, RemoteError
from repro.server.protocol import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameTooLargeError,
    ProtocolError,
    TornFrameError,
)
from repro.server.server import Server

__all__ = [
    "Client",
    "Pipeline",
    "RemoteError",
    "Server",
    "ProtocolError",
    "FrameTooLargeError",
    "TornFrameError",
    "DEFAULT_MAX_FRAME_BYTES",
]
