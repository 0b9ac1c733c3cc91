"""A fixed reference kernel that gauges how fast the host runs right now.

On a shared virtual machine the same code can run at two speeds about 1.8x
apart, each holding for seconds to minutes. run.py times this kernel between
operations and divides each operation's time by the kernel's time around it,
which takes the host's speed out of the figure. The kernel does not import
the package, so a change to the program leaves it as it is.

The kernel is made of parts, and a workload uses the parts that resemble its
own work, since a swing of the host slows different kinds of work by
different amounts:

- `interpreter`: Fraction arithmetic and the ceil(delta * 2^64) thresholds
  built from it, bignum arithmetic and dict updates;
- `numpy`: FFTs, uint64 mixing and complex exponentials on arrays that fit in
  cache;
- `memory`: passes over 8 MB arrays, as the psi spectrum makes, which feel
  the memory traffic of the host's other tenants.

A time divided by the kernel's is a cost in kernel units. run.py reports it
in seconds at the reference speed: the cost times the sum of REFERENCE_S over
the parts used.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

# Each part takes about this long on the 2-vCPU guest the benchmark was built
# on (Intel Xeon, Python 3.11, numpy 2.4), between its fast and slow levels.
REFERENCE_S = {"interpreter": 0.005, "numpy": 0.005, "memory": 0.006}
REPEATS = 3

_X = np.random.default_rng(12345).random(1 << 13)
_U = np.arange(1, 1 << 14, dtype=np.uint64)
_BIG = 3**400
_M = np.random.default_rng(2).random(1 << 20)
_OUT = np.empty_like(_M)
_S = np.random.default_rng(3).random(1 << 17)


def _interpreter() -> int:
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(i, 4099)
    thresholds = 0
    for i in range(1, 600):
        d = Fraction(i % 7 + 2, 4096 + i)
        thresholds ^= -(-(d.numerator << 64) // d.denominator)
    acc = 0
    for i in range(400):
        acc = (acc + _BIG * i) % (_BIG - 1)
    table: dict[int, int] = {}
    for i in range(4000):
        table[i * 7919 % 1021] = i
    return total.numerator + thresholds + acc + len(table)


def _numpy() -> float:
    out = 0.0
    for _ in range(12):
        out += float(np.abs(np.fft.rfft(_X)).sum())
        mixed = (_U * np.uint64(0x9E3779B97F4A7C15)) ^ (_U >> np.uint64(7))
        out += float(np.exp(2j * np.pi * _X[:4096]).real.sum()) + float(mixed[-1])
    return out


def _memory() -> float:
    np.multiply(_M, 1.0001, out=_OUT)
    np.add(_OUT, _M, out=_OUT)
    return float(np.abs(np.fft.rfft(_S)).sum())


PARTS = {"interpreter": _interpreter, "numpy": _numpy, "memory": _memory}


def reference_seconds(parts: tuple[str, ...]) -> float:
    return sum(REFERENCE_S[p] for p in parts)


def kernel_seconds(parts: tuple[str, ...]) -> float:
    """Median time of REPEATS runs of the kernel made of `parts`."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for p in parts:
            PARTS[p]()
        times.append(perf_counter() - t0)
    return sorted(times)[REPEATS // 2]
