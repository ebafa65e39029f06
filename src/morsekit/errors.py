"""Exception types shared across the toolkit."""


class MorsekitError(Exception):
    """Base class for all errors raised by this package."""


class NonSymmetric(MorsekitError):
    """Input matrix is not symmetric within tolerance.

    Asymmetric input is rejected outright rather than symmetrized, so the
    caller always knows exactly which form was analyzed.
    """


class NotPositiveDefinite(MorsekitError):
    """Candidate inner-product matrix has nonpositive directions."""


class UnsupportedBackend(MorsekitError):
    """Operation is only available on one of the two arithmetic backends."""


class EigensolverFailure(MorsekitError):
    """The underlying eigenvalue routine did not converge."""


class IsotropicDirection(MorsekitError):
    """Projection direction u has S(u, u) = 0, so S-projection is undefined."""


class NotNegativeDirection(MorsekitError):
    """Vector does not satisfy S(u, u) < 0."""


class TrivialFunctional(MorsekitError):
    """The zero functional carries no constraint information."""


class DependentInput(MorsekitError):
    """Input vectors expected to be independent are not."""


class ImpossibleCounts(MorsekitError):
    """Predicted counts no form has: a negative index, or a nullity outside [0, dim]."""


class InvalidCoefficients(MorsekitError):
    """Coefficient data violates the assembler's requirements."""


class ZeroBoundaryWeight(MorsekitError):
    """Both boundary weights vanish, so the boundary eigenvalue problem
    and the index decomposition are undefined."""


class DegenerateDirichletKernel(MorsekitError):
    """The clamped problem has a zero eigenvalue within tolerance, so the
    boundary reduction is singular."""


class ParseError(MorsekitError):
    """Problem file is not syntactically valid."""


class ValidationError(MorsekitError):
    """Problem file or argument set is structurally invalid."""
