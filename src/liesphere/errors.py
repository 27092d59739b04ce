"""Exception types shared across the package."""


class SignatureMismatch(ValueError):
    """Operands carry incompatible signatures or dimensions."""


class ShapeError(ValueError):
    """Matrix or vector shape does not match the declared signature."""


class DomainError(ValueError):
    """Input violates a documented precondition (non-unit vector, bad range)."""


class ContactViolation(ValueError):
    """Point/normal pair is not an admissible contact element."""


class DegenerateConfiguration(ValueError):
    """Cross ratio or Moebius action undefined (coincident points, singular map)."""


class NormalizationFailure(RuntimeError):
    """The conformal normalization's boost solve did not converge."""


class CertificateFailure(RuntimeError):
    """The conformal-to-isometry reduction system is singular."""


class InconsistentData(ValueError):
    """Numerical data contradicts the structural assumptions (e.g. negative discriminant)."""
