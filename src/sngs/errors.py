"""Exception taxonomy for the radial ground-state laboratory.

Every failure mode that callers are expected to branch on gets its own class;
anything else is a plain ValueError/RuntimeError bug.
"""


class SngsError(Exception):
    """Base class for all package-specific errors."""


# -- grid / quadrature -------------------------------------------------------

class NonPositiveRadius(SngsError):
    pass


class TooFewNodes(SngsError):
    pass


class GridMismatch(SngsError):
    pass


# -- eigen / linear algebra --------------------------------------------------

class TooManyRequested(SngsError):
    pass


class FactorizationFailure(SngsError):
    """A sector eigensolve that cannot be trusted: a singular or pivoted
    inertia shift, a failed ARPACK run, or a missed count or backward-error
    check.  Nothing retries."""


# -- model / solver ----------------------------------------------------------

class InvalidExponent(SngsError):
    """q = 3 or q outside (2, 6)."""


class NonConvergence(SngsError):
    """No state: a non-finite warm start, residual or Jacobian, a singular band
    matrix, a stalled line search or MAX_ITER.  Only the last two carry the
    `solver.GroundState` of their last iterate, with the iterations it took,
    as `state`; otherwise it is None."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class TrivialCollapse(SngsError):
    """Iterates decayed to the trivial solution u == 0."""


class NegativeStateDetected(SngsError):
    """Converged to a sign-changing branch, not a ground state."""


# -- diagnostics / scaling ---------------------------------------------------

class UnsortedInput(SngsError):
    pass


class MixedExponents(SngsError):
    pass


# -- linearized --------------------------------------------------------------

class UnconvergedState(SngsError):
    pass


# -- cli ----------------------------------------------------------------------

class UsageError(SngsError):
    pass


class BadRange(SngsError):
    pass


class IoError(SngsError):
    """Refusing to clobber existing artifacts (or genuine I/O failure)."""
