"""Exception types shared across the package, and the one mask check that raises them."""

import numpy as np


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


class InconsistentData(ValueError):
    """Numerical data contradicts the structural assumptions (e.g. negative discriminant)."""


def raise_where(bad, exc_type, message: str, *values) -> None:
    """Raise exc_type if the mask `bad` is set anywhere, naming the first bad stack index.

    `message` is formatted with each of `values` taken at that index.
    """
    if not np.any(bad):
        return
    first = np.unravel_index(np.argmax(bad), np.shape(bad))
    text = message.format(*(np.asarray(v)[first] for v in values))
    if first:
        text += f" at stack index {first[0] if len(first) == 1 else tuple(map(int, first))}"
    raise exc_type(text)
