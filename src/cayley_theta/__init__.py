"""Exact Lovasz theta numbers of Cayley graphs via Fourier analysis on
finite groups."""

import os

# One OpenBLAS thread unless the caller chose: the package's products
# are small, and on a 2-vCPU host the pool cost 30 ms per float S_10
# table check (under 1 ms on one thread) and 70 ms per CLI start-up.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .graphs import ConnectionSet, Graph, alpha, build_cayley  # noqa: F401,E402
from .groups import (make_abelian_product, make_from_table,  # noqa: F401,E402
                     make_general_linear, make_symmetric)
from .theta import CayleyGraphSpec, solve_theta  # noqa: F401,E402
