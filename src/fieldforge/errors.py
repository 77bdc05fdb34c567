"""Exception types shared across the package."""


class FieldForgeError(Exception):
    """Base class for all package errors."""


class ValidationError(FieldForgeError):
    """Bad user input (CLI exit code 3)."""


def _count(value, name):
    """value as an int; strings, NaN, inf and fractions are rejected."""
    try:
        integral = (not isinstance(value, (str, bytes))
                    and float(value).is_integer())
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


class NoBoundStates(FieldForgeError):
    """The potential supports no bound state on the given grid."""


class BoxTooSmall(FieldForgeError):
    """Eigenfunction tails have not decayed at the grid boundary."""


class Unsupported(FieldForgeError):
    """No closed-form result is available for this potential."""


class IntegrationFailure(FieldForgeError):
    """An ODE or quadrature routine failed to converge."""


class UnstableVacuum(FieldForgeError):
    """Binding exceeds the mass: no stable single-particle vacuum."""


class ZeroChirp(FieldForgeError):
    """Chirp rate is zero; use the windowed-cosine transform instead."""


class DegenerateGap(FieldForgeError):
    """Tracked eigenvalues closer than the gap floor."""


class GapClosure(FieldForgeError):
    """The protecting gap closed during propagation."""


class SolvabilityViolated(FieldForgeError):
    """Well schedule left the solvable parameter family."""


class NoClosure(FieldForgeError):
    """Closure tuning impossible: the rotation angle integrates to zero."""


class DimensionMismatch(FieldForgeError):
    """Operator or state dimensions are incompatible."""


class InfeasibleNulling(FieldForgeError):
    """Target mode lies in the span of the nulled modes."""


class GridTooLarge(FieldForgeError):
    """Requested few-body grid exceeds the configured budget."""


class BudgetExceeded(FieldForgeError):
    """Compiled schedule exceeds the configured sample budget."""


class InfeasibleGate(FieldForgeError):
    """Gate calibration failed for the requested target."""


class TooManyQubits(FieldForgeError):
    """Dense unitary construction limited to small registers."""
