"""Property: no command line can crash ``repro``'s question commands.

``cli.main`` is the boundary between a shell and the learners.  Whatever
argv ``learn``, ``verify``, ``revise``, ``sql`` and ``demo`` receive —
valid and malformed query strings, widths inside and outside 1..256,
any learner name, and for ``demo`` any backend name and backend options
the backends do or do not take, including a database it cannot open —
``main`` must return 0, 1 or 2, or raise argparse's ``SystemExit(2)``;
no other exception may escape.  Widths that pass validation stay at 4
or below, so the dialogues that do run are short.
"""

from __future__ import annotations

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cli import main

QUERIES = (
    "∃x1",
    "∀x1 ∃x2",
    "∀x1x2→x3",
    "∀x1→x2 ∃x3x4",
    "A x1 -> x2; E x3",
    "∃x300",
    "∀x1 ∃",
    "∀x0",
    "∀x1x2→x3x4",
    "x1",
    "",
)
WIDTHS = (None, -1, 0, 1, 2, 3, 4, 257, 300)
LEARNERS = (None, "qhorn1", "role-preserving", "bogus")
BACKENDS = (None, "bitmask", "dbapi", "sharded", "bogus")
#: ``--backend-opt`` pairs, some naming options no backend takes (the
#: removed SQL dialect, pool size and refresh switch); ``{store}`` becomes
#: the test's temporary directory, and a ``None`` value drops the ``=``.
OPTIONS = (
    ("dialect", "postgres"),
    ("pool_size", "2"),
    ("uri", ":memory:"),
    ("uri", "none"),
    ("uri", "file:{store}/argv.sqlite"),
    ("uri", "file:{store}/missing/x.sqlite"),
    ("auto_refresh", "off"),
    ("justakey", None),
)


@st.composite
def argvs(draw):
    command = draw(
        st.sampled_from(("learn", "verify", "revise", "sql", "demo"))
    )
    if command == "demo":
        argv = [command]
        backend = draw(st.sampled_from(BACKENDS))
        if backend is not None:
            argv += ["--backend", backend]
        for key, value in draw(st.lists(st.sampled_from(OPTIONS), max_size=2)):
            argv += ["--backend-opt", key if value is None else f"{key}={value}"]
        return argv
    query = st.sampled_from(QUERIES) | st.text(max_size=6).filter(
        lambda text: not text.startswith("-")  # not an option flag
    )
    argv = [command, draw(query)]
    if command in ("verify", "revise"):
        argv.append(draw(query))
    n = draw(st.sampled_from(WIDTHS))
    if n is not None:
        argv += ["--n", str(n)]
    if command == "learn":
        learner = draw(st.sampled_from(LEARNERS))
        if learner is not None:
            argv += ["--learner", learner]
    return argv


@given(argvs())
@example(["learn", "∃x300"])
@example(["demo", "--backend", "dbapi", "--backend-opt", "dialect=postgres"])
@example(
    ["demo", "--backend", "dbapi", "--backend-opt",
     "uri=file:{store}/missing/x.sqlite"]
)
@settings(max_examples=60, deadline=None)
def test_main_returns_an_exit_status(tmp_path_factory, argv):
    store = tmp_path_factory.getbasetemp()
    argv = [arg.replace("{store}", str(store)) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exit_:
            assert exit_.code == 2, (argv, err.getvalue())
            return
    assert status in (0, 1, 2), (argv, status)
