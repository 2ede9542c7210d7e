"""Membership oracles: simulated users, wrappers, adversaries (§2.1.2)."""

from repro.oracle.adversaries import CandidateEliminationAdversary, max_elimination
from repro.oracle.base import (
    ASK_ALL_CHUNK_SIZE,
    FunctionOracle,
    MembershipOracle,
    QueryOracle,
    ask_all,
)
from repro.oracle.caching import CacheStats, CachingOracle
from repro.oracle.counting import CountingOracle, QuestionStats, RecordingOracle
from repro.oracle.expression import (
    CountingExpressionOracle,
    ExpressionOracle,
    ExpressionQuestion,
)
from repro.oracle.noisy import ExhaustedReplayError, NoisyOracle, ReplayOracle
from repro.oracle.sqlbacked import SqlQueryOracle

__all__ = [
    "ASK_ALL_CHUNK_SIZE",
    "ExpressionQuestion",
    "CacheStats",
    "CachingOracle",
    "SqlQueryOracle",
    "CandidateEliminationAdversary",
    "CountingExpressionOracle",
    "CountingOracle",
    "ExpressionOracle",
    "ExhaustedReplayError",
    "FunctionOracle",
    "MembershipOracle",
    "NoisyOracle",
    "QueryOracle",
    "QuestionStats",
    "RecordingOracle",
    "ReplayOracle",
    "ask_all",
    "max_elimination",
]
