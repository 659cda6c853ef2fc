"""Shared test plumbing.

Echoes the acceptance verdict lines (one per criterion) in the terminal
summary, so a full run always ends with the pass/fail roster even when
stdout capture is on.
"""

import os
import sys

# One BLAS thread for the session, set before numpy loads.  The suite's
# linear algebra is tiny; with a second thread, OpenBLAS's main thread
# spins waiting for a worker that the OS has descheduled whenever another
# process holds the other core, so CPU-time limits fail on host load
# alone.  A value already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    if mod is None or not getattr(mod, "VERDICTS", None):
        return
    terminalreporter.section("acceptance criteria")
    for line in mod.VERDICTS:
        terminalreporter.write_line(line)
