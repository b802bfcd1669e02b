"""A fixed reference computation that tells how fast the host runs right now.

The benchmark host is shared: identical work runs up to about 1.9 times
slower, presumably while other tenants load the physical core, in
stretches that last from seconds to minutes.  `reference_seconds` runs a
fixed amount of pure-Python exact arithmetic of the same kind mcss does
(elimination mod p over lists, big-integer products, Fractions,
tuple-keyed dicts), and uses nothing from mcss, so no change to mcss
moves it.

A command's measured time t is reported as t * REFERENCE_S / c, where c
is the mean of the reference runs just before and just after it: the
time the command would take on a host that runs the reference in
REFERENCE_S seconds.  On the shared 2-core virtual machine the
baselines were taken on (CPython 3.11.7), the reference took 9 to 17 ms
as the load changed, and reported times came out at 0.55 to 0.75 of the
measured ones; the run context keeps the measured times too.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0100


def _work():
    p, n = 10007, 24
    rows = [[(i * 31 + j * 17 + i * j * 7 + 1) % p for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c]), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, p)
        rows[c] = [v * inv % p for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[c])]
    big = [3**k for k in range(40, 80)]
    acc = sum(a * b for a, b in zip(big, reversed(big)))
    table = {}
    for i in range(2000):
        table[(i % 97, i % 89)] = table.get((i % 89, i % 97), 0) + i
    frac = sum((Fraction(i, i + 1) for i in range(1, 120)), Fraction(0))
    return acc, len(table), frac


def reference_seconds():
    """Wall-clock seconds of ten runs of the reference computation."""
    t0 = perf_counter()
    for _ in range(10):
        _work()
    return perf_counter() - t0
