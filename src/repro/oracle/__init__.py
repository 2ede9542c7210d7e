"""Membership oracles: simulated users, wrappers, adversaries (§2.1.2)."""

from repro.oracle.adversaries import CandidateEliminationAdversary, max_elimination
from repro.oracle.base import FunctionOracle, MembershipOracle, QueryOracle
from repro.oracle.caching import CacheStats, CachingOracle
from repro.oracle.counting import CountingOracle, QuestionStats, RecordingOracle
from repro.oracle.expression import (
    CountingExpressionOracle,
    ExpressionOracle,
    ExpressionQuestion,
)
from repro.oracle.noisy import ExhaustedReplayError, NoisyOracle, ReplayOracle

__all__ = [
    "ExpressionQuestion",
    "CacheStats",
    "CachingOracle",
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
    "max_elimination",
]
