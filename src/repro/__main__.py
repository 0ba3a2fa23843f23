"""Module entry point: ``python -m repro``."""

import os
import sys

#: Serving sub-commands pin BLAS to one thread where the operator left
#: these unset: the stack runs in parallel across processes, and
#: OpenBLAS's thread per CPU costs a sharded cold flush 1.4-1.5x
#: (``benchmarks/e2e/REPEATABILITY.md`` section 3).  Set before numpy
#: loads, so forked hosts inherit the pinned library.
SERVING_COMMANDS = ("serve", "shard-host")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def pin_blas_threads(argv, environ=os.environ) -> None:
    """Default each of :data:`BLAS_THREAD_VARS` to ``"1"`` in
    ``environ`` when ``argv`` (program name dropped) runs a serving
    sub-command."""
    if argv and argv[0] in SERVING_COMMANDS:
        for name in BLAS_THREAD_VARS:
            environ.setdefault(name, "1")


if __name__ == "__main__":
    pin_blas_threads(sys.argv[1:])
    from .cli import main

    raise SystemExit(main())
