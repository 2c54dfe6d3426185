"""The reference kernel: a fixed piece of work that measures the speed of a CPU.

The machine the benchmark runs on is shared.  Each of its CPUs, on its
own and independently of the others, runs at full speed or at about
half of it, in phases that last seconds to tens of seconds, so that a
time of the package alone says as much about the neighbours as about
the code.  The benchmark therefore pins each repetition's serial work
to one CPU and times this kernel just before and just after each timed
phase, on the CPUs that run the phase: on the repetition's CPU around
a serial phase, and on every CPU at once around the census pool, which
keeps them all busy.  run.py scales each phase by REFERENCE_S over the
kernel's mean time around it.  The kernel never imports the package,
so a change under src/ moves the scaled times by exactly as much as it
moves the raw ones.

The kernel does the same kind of work as the package's hot paths, in
pure Python: powers of x modulo (f, p) with polynomials as tuples over
primes near 10^6, and fraction-free (Bareiss) elimination of 6 x 6
integer matrices.  A tight integer loop was tried first; it tracked the
package's slow phases only half as well, because it misses the cache
and allocation pressure the package sees.

    python3 perfbench/calib.py CPU

serves Sampler: pinned to CPU, it times one pass of the kernel for each
line it reads and prints the seconds.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from pathlib import Path

ROUNDS = 250
TIMEOUT = 30
# Scaled times are seconds on a CPU that runs the kernel in this time,
# which is about what one CPU of the first baseline's machine took at
# full speed.
REFERENCE_S = 0.1


def _mulmod(a, b, f, p):
    n = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k] % p
        if c:
            for j in range(n):
                prod[k - n + j] -= c * f[j]
    return tuple(x % p for x in prod[:n])


def _pow_x(e, f, p):
    """x**e modulo the monic f and p."""
    n = len(f) - 1
    r = (1,) + (0,) * (n - 1)
    b = (0, 1) + (0,) * (n - 2)
    while e:
        if e & 1:
            r = _mulmod(r, b, f, p)
        b = _mulmod(b, b, f, p)
        e >>= 1
    return r


def _bareiss_det(m):
    m = [row[:] for row in m]
    n = len(m)
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k] or 1
    return m[-1][-1]


def kernel(rounds: int = ROUNDS) -> int:
    rng = random.Random(7)
    acc = 0
    seen = {}
    for _ in range(rounds):
        p = rng.randrange(10**6, 2 * 10**6) | 1
        f = tuple(rng.randrange(p) for _ in range(6)) + (1,)
        r = _pow_x(p, f, p)
        seen[r] = seen.get(r, 0) + 1
        acc ^= hash(r)
        m = [[rng.randrange(-(10**6), 10**6) for _ in range(6)] for _ in range(6)]
        acc ^= _bareiss_det(m) & 0xFFFF
    return acc + len(seen)


class Sampler:
    """One kernel process per CPU, each pinned to its CPU and waiting for requests.

    They are started before the caller imports the package, so they stay
    small: RUSAGE_CHILDREN's peak RSS, read before close(), counts only
    the census pool's workers.  While the kernel runs, the caller waits.
    """

    def __init__(self, cpus):
        self.procs = {
            cpu: subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), str(cpu)],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
            for cpu in cpus
        }

    def sample(self, cpus) -> dict:
        """The kernel's time on each of the CPUs, run on all of them at once."""
        for cpu in cpus:
            self.procs[cpu].stdin.write("\n")
        return {cpu: float(self.procs[cpu].stdout.readline()) for cpu in cpus}

    def close(self):
        for p in self.procs.values():
            p.stdin.close()
        for p in self.procs.values():
            try:
                p.wait(timeout=TIMEOUT)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()


def serve(cpu: int):
    """Pinned to cpu, time the kernel once per line read, until end of input."""
    os.sched_setaffinity(0, {cpu})
    kernel(ROUNDS // 10)
    for _ in sys.stdin:
        t = time.perf_counter()
        kernel()
        print(time.perf_counter() - t, flush=True)


if __name__ == "__main__":
    serve(int(sys.argv[1]))
