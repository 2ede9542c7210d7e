"""Query learning algorithms (§3): qhorn-1, role-preserving, baselines,
plus the §6 extensions (revision, expression questions, PAC).
"""

from repro.learning.baselines import (
    BruteForceLearner,
    HeadPairLearner,
    NaiveQhorn1Learner,
)
from repro.learning.expression_learner import (
    ExpressionLearner,
    ExpressionLearnerResult,
)
from repro.learning.pac import (
    PacLearner,
    PacResult,
    estimate_error,
    pac_learn,
    pac_sample_bound,
    random_object_sampler,
)
from repro.learning.qhorn1 import (
    Qhorn1Group,
    Qhorn1Learner,
    Qhorn1Result,
    learn_qhorn1,
)
from repro.learning.revision import (
    QueryReviser,
    RevisionResult,
    revise_query,
)
from repro.learning.role_preserving import (
    RolePreservingLearner,
    RolePreservingResult,
    learn_role_preserving,
)
from repro.learning.version_space import SplitQuality, VersionSpace

__all__ = [
    "ExpressionLearner",
    "ExpressionLearnerResult",
    "PacLearner",
    "PacResult",
    "QueryReviser",
    "RevisionResult",
    "SplitQuality",
    "VersionSpace",
    "estimate_error",
    "pac_learn",
    "pac_sample_bound",
    "random_object_sampler",
    "revise_query",
    "BruteForceLearner",
    "HeadPairLearner",
    "NaiveQhorn1Learner",
    "Qhorn1Group",
    "Qhorn1Learner",
    "Qhorn1Result",
    "RolePreservingLearner",
    "RolePreservingResult",
    "learn_qhorn1",
    "learn_role_preserving",
]
