"""Exception types shared across the package.

The CLI maps these onto exit codes: bad parameters exit 2, violations of
the input contract (malformed streams, out-of-range values, suspected
cycles) exit 3, a schedule sketch that cannot host its instance exits
4, and a broken internal invariant exits 5 (``error: internal: ...``).
"""


class ParamError(ValueError):
    """A parameter is missing or outside its legal range."""


class InputContractError(ValueError):
    """The event stream or instance file violates its documented contract."""

    def __init__(self, message: str, row: tuple[str, int] | None = None):
        super().__init__(message)
        self.row = row  # for an error of one event, ("J", k) or ("A", k): the k-th job or arc, from 0


class CycleSuspicionError(InputContractError):
    """Arc stream implies a cycle (non-topological order or a self-loop)."""


class SketchInfeasibleError(RuntimeError):
    """A schedule sketch cannot fit the instance on the given machines.

    Raised by the second pass when a depth's cut search reaches machine
    m + 1, where it stops.  Under the approximation guarantees this
    never happens, so hitting it signals a sketch/instance mismatch.
    """


class InvariantViolationError(RuntimeError):
    """Internal bookkeeping was asked to do something impossible.

    Example: decrementing a sketch node that does not exist, which means
    the per-job depth table and the sketch have drifted apart.
    """
