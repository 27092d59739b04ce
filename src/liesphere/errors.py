"""Exception types shared across the package, the one mask check that raises them, and the
one policy that turns a numpy floating-point error into a DomainError."""

import contextlib

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

    `message` is formatted with each of `values` taken at that index. The exception
    keeps that index as `index` and those values as `values`.
    """
    if not np.any(bad):
        return
    first = np.unravel_index(np.argmax(bad), np.shape(bad))
    at = tuple(np.asarray(v)[first] for v in values)
    text = message.format(*at)
    if first:
        text += f" at stack index {first[0] if len(first) == 1 else tuple(map(int, first))}"
    exc = exc_type(text)
    exc.index, exc.values = first, at
    raise exc


@contextlib.contextmanager
def float_errors_raise(message: str, *values, also=()):
    """Run the block with numpy's divide, overflow and invalid errors raised.

    Such an error, or an exception of a type in `also`, is raised again as
    DomainError(message formatted with each of `values` as a list), caused by it.
    """
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            yield
    except (FloatingPointError, *also) as exc:
        raise DomainError(message.format(*(np.asarray(v).tolist() for v in values))) from exc
