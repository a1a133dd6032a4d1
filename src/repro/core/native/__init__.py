"""Status of the native (compiled) kernel tier: there is none.

The bit-exact kernels are pure NumPy.  :func:`native_status` keeps the
report shape that benches and tooling embed, so recorded numbers still
say which tier produced them.
"""

from __future__ import annotations

__all__ = ["native_status"]


def native_status() -> dict:
    """Introspection snapshot of the (absent) native tier.

    Keys: ``available``, ``disabled``, ``active``, ``backend``,
    ``numba_version`` and ``threads``.  No tier is compiled or active,
    so the backend is always ``"numpy-fallback"``.
    """
    return {
        "available": False,
        "disabled": False,
        "active": False,
        "backend": "numpy-fallback",
        "numba_version": None,
        "threads": None,
    }
