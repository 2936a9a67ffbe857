"""Pin one BLAS thread for the suite unless the caller set a count.

This runs before any test module imports numpy. The MPC tests make many
small dense solves, and with the default thread pool a second busy process
on a two-core host makes them 10–40x slower.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
