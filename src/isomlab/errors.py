"""Exception types shared across the library."""


class IsomlabError(Exception):
    """Base class for all library errors."""


class _MemberError(IsomlabError):
    """An error that names the failing members of a stack in ``members``
    (0: one matrix or map)."""

    def __init__(self, message, members=()):
        super().__init__(message)
        self.members = tuple(int(i) for i in members)


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


class DegeneratePoint(_MemberError):
    """Gradient requested at a point where the norm is not smooth;
    ``members`` indexes the offending members of a stack (0: one matrix)."""


class NotSpecialOrthogonal(IsomlabError):
    """Orthogonal matrix has determinant -1 where +1 is required."""


class NotIsometry(_MemberError):
    """Map fails the norm-isometry check beyond tolerance; ``members``
    indexes the members of a stack that fail it (0: one map)."""


class NotInClassifiedForm(_MemberError):
    """Isometry does not match any of the classified canonical forms;
    ``members`` indexes the members of a stack that no branch reproduces
    (0: one map)."""


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
