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


class RadiusOutOfRange(SngsError):
    """The r^2 dr measure r_max^3 / 3, the size of every weight sum, is not
    a normal float: r_max is so large it overflows, or so small it underflows."""


# -- inertia / linear algebra -----------------------------------------------

class FactorizationFailure(SngsError):
    """A sector count that cannot be trusted: a singular or pivoted inertia
    shift, or a failed tridiagonal solve.  Nothing retries."""


# -- model / solver ----------------------------------------------------------

class InvalidExponent(SngsError):
    """q = 3 or q outside (2, 6)."""


class NonConvergence(SngsError):
    """No state: a non-finite warm start, residual or Jacobian on the active
    nodes, which never read u(0), or a singular band matrix.  Newton returns
    the state of its last iterate at MAX_ITER or a line search with no
    descent, for `solver.acceptance_failures` to judge, u(0) included, so no
    NonConvergence carries a state."""


class TrivialCollapse(SngsError):
    """Iterates decayed to the trivial solution u == 0."""


class StateOutOfRange(SngsError):
    """A state beyond the floats: its scale s, its member or s u~ itself."""


# -- cli ----------------------------------------------------------------------

class UsageError(SngsError):
    pass


class BadRange(SngsError):
    pass


class IoError(SngsError):
    """Refusing to clobber existing artifacts (or genuine I/O failure)."""
