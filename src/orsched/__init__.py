"""Operating-room scheduling toolkit.

Predicts surgery durations from historical records, attaches per-prediction
confidence levels, computes weekly OR schedules by lexicographic weak-constraint
optimization, and evaluates schedule quality by replaying actual durations.
"""

from orsched.core import (
    Assignment,
    MssSlot,
    ObjectiveVector,
    ProblemInstance,
    Registration,
    Schedule,
    Shift,
    Violation,
    validate_instance,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "MssSlot",
    "ObjectiveVector",
    "ProblemInstance",
    "Registration",
    "Schedule",
    "Shift",
    "Violation",
    "validate_instance",
    "__version__",
]
