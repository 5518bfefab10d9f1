"""Test-session setup.

The test modules import numpy before ``cayley_theta``, so the package's
one-thread OpenBLAS default would come too late for them; it is set here,
before any test module is imported, so the suite runs the package as the
command line does.  A caller's own setting is kept."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
