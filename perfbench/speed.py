"""The processor's speed, measured beside the program on the same CPU.

On a virtual machine that shares its CPUs with other tenants, such as the
reference machine (README), each CPU's speed switches between phases about
1.7 times apart that last from seconds to minutes. A wall time alone then says more about the phase than about the
program. So each pass time is expressed at a fixed reference speed: a
fixed pure-Python loop (``reference_loop``) is timed many times while the
pass runs, and a pass that took ``t`` seconds, less the loops run inside
it, while the loop took ``l`` seconds on average, becomes
``t * REF_LOOP_S / l``: the time the same work would take at the speed at
which the loop takes ``REF_LOOP_S``.

Set-up times are scaled too, but by the loop's median over the whole
run: the fresh interpreter of a set-up probe lives too briefly to time the
loop in (its first loops run cold), while over a run the median import
time follows the loop's median.
"""

import signal
import time

REF_LOOP_S = 1e-3  # the reference speed: the loop takes 1 ms
LOOP_ITERATIONS = 2500  # about 0.5-1.3 ms on a 2.1 GHz Xeon, depending on the phase
SAMPLE_PERIOD_S = 0.05  # how often the loop runs while a pass runs


def reference_loop() -> float:
    """Fixed interpreter work: list, dict and float arithmetic."""
    acc = 0.0
    xs = [0.0] * 12
    table = {}
    for k in range(LOOP_ITERATIONS):
        i = k % 12
        xs[i] = (1.0 + xs[i - 1] * 0.5) ** 0.5
        table[i] = table.get(i, 0.0) + xs[i]
        acc += xs[i]
    return acc


def time_loop() -> float:
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class Sampler:
    """Times the reference loop every ``SAMPLE_PERIOD_S`` of wall time.

    The loop runs from a SIGALRM handler, which Python calls in the main
    thread between bytecodes, so it runs on the CPU the program is using at
    that moment. Only for use in the main thread of a single process.
    """

    def __init__(self) -> None:
        self.loops: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.loops.append(time_loop())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scaled(wall_s: float, loops: list[float]) -> float:
    """``wall_s`` minus the loops run inside it, at the reference speed."""
    if not loops:
        loops = [time_loop()]
    mean_loop = sum(loops) / len(loops)
    return (wall_s - sum(loops)) * REF_LOOP_S / mean_loop
