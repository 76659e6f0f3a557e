"""Exact and arbitrary-precision verification toolkit for the elliptic K3
family whose period map inverts to Hilbert modular functions for Q(sqrt 5)."""

from .numkernel import PrecisionPolicy, working_precision

__all__ = ["PrecisionPolicy", "working_precision"]
__version__ = "0.1.0"
