"""Repository-level pytest configuration.

Registers the ``--update-results`` flag used by the benchmark suite
(``benchmarks/conftest.py``).  Without the flag, benchmark tables are
written to the untracked ``benchmarks/out/`` directory, so local runs and
CI never churn the committed tables under ``benchmarks/results/``; with
it, the committed tables are refreshed in place.  The option must be
registered here (the rootdir conftest) so it exists regardless of which
test directory is selected on the command line.

Also puts ``src/`` first on ``sys.path``, so the suite imports this
checkout's package without an install.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent / "src"))


def pytest_addoption(parser):
    parser.addoption(
        "--update-results",
        action="store_true",
        default=False,
        help="rewrite the committed benchmark tables under "
        "benchmarks/results/ (default: write to benchmarks/out/)",
    )
