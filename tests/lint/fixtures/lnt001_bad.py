"""LNT001 fixture: suppressions that no longer earn their keep."""

import time


def stamp():
    return time.time()  # repro-lint: disable=DET001


def idle():
    return 1  # repro-lint: disable=DET001


def typo():
    return 2  # repro-lint: disable=DET999


# repro-lint: disable-file=PKT001
# repro-lint: disable=PERF101
