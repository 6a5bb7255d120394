"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so runner scripts can tell a
bad config from a blown resource guard or a numerical abort. The argument
rules :func:`check_int` and :func:`check_real` raise ``ValueError``.
"""
import math
import numbers


class DimensionError(ValueError):
    """Tensor index extents are incompatible with the requested operation."""


class ResourceLimitError(RuntimeError):
    """A desk-scale guard (lattice size, chain length, bit width) was exceeded."""


class CacheStateError(RuntimeError):
    """A dynamic contraction cache was used with a state it does not belong to."""


class ConfigError(ValueError):
    """An experiment config failed schema validation; message carries the field path."""


class NumericalAbortError(RuntimeError):
    """An optimization or estimator detected divergence and stopped."""


class DataError(ValueError):
    """Numerical input violates a required property (e.g. density matrix trace)."""


class RepresentationError(ValueError):
    """An encoded value does not have the expected representation."""


class GraphError(ValueError):
    """A circuit graph is structurally invalid (cycle, unbound wire, bad arity)."""


class InvariantError(RuntimeError):
    """An internal invariant failed (e.g. a non-basis intermediate in a binary circuit)."""


def check_int(name: str, value, least: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer
    (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not hasattr(value, "__index__") or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def check_real(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite real
    number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
