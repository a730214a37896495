"""Exception types shared across the library."""


class IsomlabError(Exception):
    """Base class for all library errors."""


class InvalidDimension(IsomlabError):
    """Matrix or coordinate dimensions are unsupported or inconsistent."""


class NotHermitian(IsomlabError):
    """Input expected to be Hermitian deviates beyond tolerance."""


class SpecMismatch(IsomlabError):
    """Norm spec and argument belong to different matrix spaces."""


class InvalidNormSpec(IsomlabError):
    """Norm parameters are outside their legal range."""


class InvalidSeed(IsomlabError):
    """A seed that ``np.random.default_rng`` refuses, such as a negative
    integer."""


class DegeneratePoint(IsomlabError):
    """Gradient requested at a point where the norm is not smooth;
    ``members`` indexes the offending members of a stack (0: one matrix)."""

    def __init__(self, message, members=()):
        super().__init__(message)
        self.members = tuple(int(i) for i in members)


class NotSpecialOrthogonal(IsomlabError):
    """Orthogonal matrix has determinant -1 where +1 is required."""


class NotIsometry(IsomlabError):
    """Map fails the norm-isometry check beyond tolerance."""


class NotInClassifiedForm(IsomlabError):
    """Isometry does not match any of the classified canonical forms;
    ``members`` indexes the members of a stack that no branch reproduces
    (0: one map)."""

    def __init__(self, message, members=()):
        super().__init__(message)
        self.members = tuple(int(i) for i in members)


class NotAdjointImage(IsomlabError):
    """Map is not the adjoint image of any unitary/orthogonal matrix.

    Carries the reconstruction residual of the recovered candidate: the
    max coordinate deviation of its adjoint (congruence) map from the input.
    """

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class InconclusiveDimension(IsomlabError):
    """No clear spectral gap; the null-space dimension cannot be trusted."""
