"""Exception types, and the one size rule: work that explodes with n first
estimates its steps and bytes in O(1) and calls check_work. A step is a numpy
element or 30-bit big-integer digit operation; a Python-level operation counts
PY_OP steps (a SetPartition of n elements about 10 n)."""

STEP_LIMIT = 4 * 10**9
MEMORY_LIMIT = 2 * 2**30  # bytes
PY_OP = 30


class ResourceLimitError(RuntimeError):
    """An enumeration or construction is estimated past the size limits."""


def check_work(what, steps, memory):
    """Refuse `what` when its estimated steps or bytes exceed the limits."""
    if steps > STEP_LIMIT or memory > MEMORY_LIMIT:  # shown up to 1e300
        raise ResourceLimitError(
            f"{what} is estimated at {min(steps, 1e300):.4g} steps and {min(memory, 1e300):.4g}"
            f" bytes, over the limits of {STEP_LIMIT:.4g} steps and {MEMORY_LIMIT:.4g} bytes"
        )


def capped_count(count, n):
    """count(n), or past n = 64 the floor 2^63 of every count taken here."""
    return count(n) if n <= 64 else 2**63


class ProtocolViolation(RuntimeError):
    """A vertex state machine broadcast other than exactly one Symbol in a round."""


class PartitionParseError(ValueError):
    """Malformed partition text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InternalConsistencyError(RuntimeError):
    """Two internally derived views of the same object disagree."""
