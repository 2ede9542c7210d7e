"""Multi-session round serving (DESIGN.md §2f, §2h).

* :mod:`repro.server.core` — :class:`RoundServer`, the event loop that
  multiplexes many concurrent learning dialogues over a session-id
  framed, newline-delimited JSON wire (TCP, or one stdin/stdout pipe).
* :mod:`repro.server.store` — :class:`SessionStore`, sqlite persistence
  of round-boundary :class:`~repro.interactive.session.SessionSnapshot`
  replay logs so dialogues survive disconnects and server restarts; its
  claim tokens let two processes share one store file.
* :mod:`repro.server.loadgen` — the E25 load generator: N simulated
  users answering rounds with think-time, optionally parking and
  reconnecting after every few rounds.  The package does not import it,
  so ``python -m repro.server.loadgen`` runs the module once.
"""

from repro.server.core import LEARNERS, RoundServer
from repro.server.store import SessionStore, StoredSession

__all__ = [
    "LEARNERS",
    "RoundServer",
    "SessionStore",
    "StoredSession",
]
