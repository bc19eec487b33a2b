"""Exception hierarchy shared by all toricgit modules.

Every mathematically meaningful failure gets its own class so that callers
(and the CLI exit-code contract) can distinguish "your input is malformed"
from "this computation is genuinely infeasible".
"""


class ToricGitError(Exception):
    """Base class for all library errors."""


class InputError(ToricGitError):
    """Malformed input: bad schema, wrong dimensions, invalid parameters."""


class DimensionMismatch(InputError):
    pass


class ZeroVector(InputError):
    pass


class FacetMismatch(InputError):
    """Sheaf and polytope (or two sheaves) disagree on the facet set."""


class InfeasibleError(ToricGitError):
    """Mathematically well-posed input for which the requested object does
    not exist (CLI exit code 2)."""


class NotSaturated(InfeasibleError):
    pass


class Unbounded(InfeasibleError):
    pass


class EmptyPolytope(InfeasibleError):
    pass


class NotFullDimensional(InfeasibleError):
    pass


class RedundantInequality(InfeasibleError):
    """An inequality that does not cut out a facet; rejected at construction
    because facets index divisors."""


class NotGeneric(InfeasibleError):
    """The linearization has strictly semistable faces or an empty stable
    locus; no geometric quotient."""


class NotAmple(InfeasibleError):
    """Assembled bundle polytope is invalid; the base polarization needs to
    be dilated."""


class InfeasibleTargets(InfeasibleError):
    """Facet-volume targets violate the weighted-normal balance condition."""


class NoConvergence(ToricGitError):
    """Iterative solver exhausted its iteration budget."""


class CurveQuotient(InfeasibleError):
    """The GIT quotient is one-dimensional: every polarization of a curve
    assigns degree 1 to a point, so the quotient ample class is not pinned
    down by facet volumes."""


class MinkowskiFails(InfeasibleError):
    """The Minkowski condition does not hold for this setup."""


class InternalError(ToricGitError):
    """An internal consistency check failed: a bug, never a property of the
    input.  Raised explicitly so that the check survives ``python -O``."""
