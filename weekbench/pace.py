"""The host's pace: how long a fixed piece of Python work takes on it now.

The benchmark shares its host with other machines' load. The host runs in
spells of full and of about half speed, each lasting from seconds to
minutes, and a whole run can fall in one. A fixed loop that fills and sorts
a dictionary of some 15,000 tuple keys slows down with the program: about
25 ms in fast spells, 45-60 ms in slow ones. ``Pace`` times that loop after
every ``orsched`` call, in a child process so that the table stays out of
the run's peak memory. The benchmark multiplies its end-to-end times by
``REFERENCE_S`` over the run's median sample, which gives them at the
host's full speed. No ``orsched`` code runs in a sample, so a faster
program still reads faster.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time

#: the loop's time in the host's fast spells; scaled times are at that pace
REFERENCE_S = 0.025


def _work() -> None:
    rng = random.Random(5)
    table: dict[tuple[int, int], int] = {}
    for i in range(15000):
        key = (rng.randrange(30000), i % 17)
        table[key] = table.get(key, 0) + i
    sorted(table.items())


class Pace:
    """The samples of one run, taken by a child process that lives as long
    as this object's ``with`` block."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._child = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def __enter__(self) -> Pace:
        return self

    def __exit__(self, *exc) -> None:
        self._child.stdin.close()
        try:
            self._child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()

    def sample(self) -> None:
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        self.samples.append(float(self._child.stdout.readline()))

    def median(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """The factor that turns a time measured in this run into one at the
        host's full speed."""
        return REFERENCE_S / self.median()


if __name__ == "__main__":
    for _ in sys.stdin:  # one sample per line, until the parent closes the pipe
        start = time.perf_counter()
        _work()
        print(time.perf_counter() - start, flush=True)
