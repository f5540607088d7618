"""Run the test session with one BLAS thread unless the caller chose a count.

The desk-scale matrices are too small for a second BLAS thread to pay
off, and when another process shares the cores the spinning worker
threads slow every step several times over. The variables take effect
only if numpy is not imported yet, which holds when pytest loads this
file. The thread count does not change any computed value.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
