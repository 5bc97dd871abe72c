"""Exception types shared across the package.

The CLI maps these onto exit codes: bad parameters exit 2, violations of
the input contract (malformed streams, out-of-range values, suspected
cycles) exit 3, and a schedule sketch that cannot host its instance
exits 4.
"""


class ParamError(ValueError):
    """A parameter is missing or outside its legal range."""


class InputContractError(ValueError):
    """The event stream or instance file violates its documented contract."""


class CycleSuspicionError(InputContractError):
    """Arc stream implies a cycle (depth overflow, non-topological order or a self-loop)."""


class SketchInfeasibleError(RuntimeError):
    """A schedule sketch cannot fit the instance on the given machines.

    Raised by the second pass when the per-depth machine cursor would
    move past machine m.  Under the approximation guarantees this never
    happens, so hitting it signals a sketch/instance mismatch.
    """


class InvariantViolationError(RuntimeError):
    """Internal bookkeeping was asked to do something impossible.

    Example: decrementing a sketch node that does not exist, which means
    the per-job depth table and the sketch have drifted apart.
    """
