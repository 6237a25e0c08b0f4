import os

# one BLAS thread unless the caller chose otherwise: on a 2-core host two
# OpenBLAS threads made the dense resolvent-gap tests about twice as slow.
# This runs before any test module imports numpy, so OpenBLAS reads it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

# keep collection away from the read-only input corpus: some of its files
# match test discovery patterns and execute scripts at import time
collect_ignore = ["examples", "src"]
