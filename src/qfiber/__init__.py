"""Exact combinatorics of rectangle-restricted partitions, Gaussian binomial
coefficient vectors, step-sequence group actions, and marked-ring fibers.

Everything computes with exact integer arithmetic; the `verify` module and
the `qfiber` CLI cross-check every identity against independent enumeration.
"""

from .heisenberg import *
from .partitions import *
from .qbinomial import *
from .surjections import *
from .verify import *

__version__ = "0.1.0"

# each submodule lists its own exports; importing it bound its name here
__all__ = [
    *heisenberg.__all__,
    *partitions.__all__,
    *qbinomial.__all__,
    *surjections.__all__,
    *verify.__all__,
]
