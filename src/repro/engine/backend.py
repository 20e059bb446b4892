"""The engines' array library, by name: always NumPy.

Kept so provenance records can name the array library the engines ran on.
"""

from types import SimpleNamespace

__all__ = ["get_backend"]

_NUMPY = SimpleNamespace(name="numpy")


def get_backend():
    """The engines' array library (an object whose ``name`` is ``"numpy"``)."""
    return _NUMPY
