"""Exact arithmetic for Cantor series over arbitrary integer base sequences."""

from .foundation import *
from .expansion import *
from .rationality import *
from .structure import *

__version__ = "0.1.0"

__all__ = foundation.__all__ + expansion.__all__ + rationality.__all__ + structure.__all__
