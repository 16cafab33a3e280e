"""Process entry points that run on one BLAS thread unless told otherwise.

The command line works on Laplacians of a few hundred nodes at most. At that
size a second OpenBLAS thread saves no wall time and only spins: a
``scipy.linalg.eigh`` of 4 eigenpairs at n = 150 takes 1.3 ms on one thread
and 3.2 ms on two (2-core x86-64 machine). A threaded BLAS call also splits
its sums by thread count, so the last bits of a result, and the bytes a
command writes, would depend on the machine's core count.

OpenBLAS reads its thread count once, when its library loads, so the default
must be in the environment before numpy or scipy is imported. Importing
``tvclust`` or ``tvclust.cli`` changes nothing; only a process entry does.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def one_blas_thread() -> None:
    """Set OPENBLAS_NUM_THREADS=1 unless one of THREAD_VARS is already set.

    A non-empty value of any of them is the caller's choice and is left as it
    is. Call this before numpy or scipy loads; afterwards it reaches only the
    BLAS libraries that have not loaded yet.
    """
    if not any(os.environ.get(var) for var in THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main():
    """The ``tvclust`` console script: one BLAS thread, then the click CLI."""
    one_blas_thread()
    from .cli import main as cli_main

    return cli_main()
