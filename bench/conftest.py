"""Self-tests of the benchmark import ditto from this checkout's src/."""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from run import load_ditto  # noqa: E402  (bench/ is on sys.path under pytest)

load_ditto()
