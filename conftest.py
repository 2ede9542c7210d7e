"""Repository-level pytest configuration.

Registers the ``--update-results`` flag used by the benchmark suite
(``benchmarks/conftest.py``).  Without the flag, benchmark tables are
written to the untracked ``benchmarks/out/`` directory, so local runs and
CI never churn the committed tables under ``benchmarks/results/``; with
it, the committed tables are refreshed in place.  The option must be
registered here (the rootdir conftest) so it exists regardless of which
test directory is selected on the command line.

Also registers ``--backend`` and ``--backend-opt``: tests parametrized
over the evaluation backends (they request the ``backend_name`` fixture)
normally run once per backend; ``--backend dbapi`` restricts
them to a single backend, which is how CI exercises the SQL path on a
fast tier-1 subset.  ``--backend-opt KEY=VALUE``
(repeatable) rides along through the ``backend_options`` fixture — the
same uniform options pipeline the CLI subcommands use (DESIGN.md §2i) —
so e.g. ``--backend dbapi --backend-opt uri=file:/tmp/t/s.sqlite`` pins
the whole backend-parametrized suite to a file-backed store.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent / "src"))

from repro.data.backends import BACKENDS, parse_backend_opts  # noqa: E402

# Every backend in the name table (DESIGN.md §2i), so a backend added
# there is picked up by every backend-parametrized test.
ALL_BACKENDS = tuple(sorted(BACKENDS))


def pytest_addoption(parser):
    parser.addoption(
        "--update-results",
        action="store_true",
        default=False,
        help="rewrite the committed benchmark tables under "
        "benchmarks/results/ (default: write to benchmarks/out/)",
    )
    parser.addoption(
        "--backend",
        choices=ALL_BACKENDS,
        default=None,
        help="restrict backend-parametrized tests to one evaluation "
        "backend (default: run them against every backend)",
    )
    parser.addoption(
        "--backend-opt",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="backend constructor option for backend-parametrized tests "
        "(repeatable, typed coercion; the CLI --backend-opt pipeline)",
    )


def pytest_generate_tests(metafunc):
    if "backend_name" in metafunc.fixturenames:
        choice = metafunc.config.getoption("--backend")
        names = (choice,) if choice else ALL_BACKENDS
        metafunc.parametrize("backend_name", names)


@pytest.fixture(scope="session")
def backend_options(request):
    """Parsed ``--backend-opt`` pairs (empty dict when none given)."""
    return parse_backend_opts(request.config.getoption("--backend-opt"))
