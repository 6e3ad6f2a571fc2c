"""The kernel module the series layer calls.

``kernels`` is :mod:`riordan._purekernels`, the one implementation of
``mul``, ``div``, ``compose``, ``revert``, ``columns``, ``exp`` and
``power``; ``backend_name`` names it.
"""

from __future__ import annotations

from . import _purekernels

kernels = _purekernels


def backend_name() -> str:
    """Which kernel implementation is active: always ``pure``."""
    return "pure"
