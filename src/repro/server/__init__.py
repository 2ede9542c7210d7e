"""Multi-session round serving (DESIGN.md §2f, §2h).

* :mod:`repro.server.core` — :class:`RoundServer`, the event loop that
  multiplexes many concurrent learning dialogues over a session-id
  framed, newline-delimited JSON wire (TCP, or one stdin/stdout pipe).
* :mod:`repro.server.store` — :class:`SessionStore`, sqlite persistence
  of round-boundary :class:`~repro.interactive.session.SessionSnapshot`
  replay logs so dialogues survive disconnects and server restarts; in
  fleet mode (WAL, per-process connections, claim tokens) the only
  state workers share.
* :mod:`repro.server.multiproc` — :class:`ServerFleet`, N forked
  ``RoundServer`` workers on one host:port via ``SO_REUSEPORT``.
* :mod:`repro.server.loadgen` — the E25 load generator: N simulated
  users answering rounds with think-time, optionally hopping workers
  through park-and-reconnect, optionally fanned over client processes.
"""

from repro.server.core import LEARNERS, RoundServer, SessionMeter
from repro.server.loadgen import (
    LoadReport,
    UserResult,
    run_load,
    run_load_multiprocess,
    simulate_user,
)
from repro.server.multiproc import ServerFleet
from repro.server.store import SessionStore, StoredSession

__all__ = [
    "LEARNERS",
    "LoadReport",
    "RoundServer",
    "ServerFleet",
    "SessionMeter",
    "SessionStore",
    "StoredSession",
    "UserResult",
    "run_load",
    "run_load_multiprocess",
    "simulate_user",
]
