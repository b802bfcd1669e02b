"""The total complex of a multicomplex, with its column filtration.

Per total degree n the basis collects the bidegree blocks (a, n-a) in
descending a, so the filtration F_p (first index a <= p) is always a
coordinate suffix and membership is a mask, not a solve.

Each d_n is stored once, in the form its readers reduce: dense integer
columns, column j being d(e_j) times one denominator `den`, the lcm of
the structure maps' denominators (1 over ZZ and GF(p)).  Readers span or
eliminate the columns, and a span does not see a common scale, so one
`den` serves every degree.  d.d = 0 is not checked on Tot again: it
holds exactly when every relation sum_{i+j=n} d_i d_j = 0 does, and
`Multicomplex.validate` checks those once per multicomplex.
"""

from __future__ import annotations

from bisect import bisect_left
from math import lcm

from .multicomplex import Multicomplex, RelationError


class TotalComplex:
    __slots__ = ("ring", "den", "_offsets", "_cuts", "_columns")

    def __init__(self, ring, den, offsets, cuts, columns):
        self.ring = ring
        self.den = den             # d_n = columns(n) / den in every degree
        self._offsets = offsets    # n -> {a: (start, rank)} in descending a
        self._cuts = cuts          # n -> ([-a per block], [block starts..., dimension])
        self._columns = columns    # n -> dim(n) integer columns of length dim(n-1)

    def degrees(self):
        return sorted(self._offsets)

    def dim(self, n: int) -> int:
        return self.block_starts(n)[-1]

    def blocks(self, n: int):
        """The (a, n-a, rank) blocks of the degree-n basis, in its order: descending a."""
        return [(a, n - a, rank) for a, (_, rank) in self._offsets.get(n, {}).items()]

    def block_starts(self, n: int):
        """The first coordinate of each degree-n block, in order, then dim(n)."""
        return self._cuts.get(n, ((), (0,)))[1]

    def columns(self, n: int):
        """d_n: Tot_n -> Tot_{n-1} as integer columns over `den`, shared: never change them."""
        return self._columns.get(n, [])

    def block_start(self, n: int, a: int):
        """Offset and width of the (a, n-a) block, or (None, 0) if absent."""
        return self._offsets.get(n, {}).get(a, (None, 0))

    def filtration_start(self, n: int, p: int) -> int:
        """First coordinate with filtration index <= p (they form a suffix)."""
        cols, starts = self._cuts.get(n, ((), (0,)))
        return starts[bisect_left(cols, -p)]


def totalize(c: Multicomplex) -> TotalComplex:
    """Assemble Tot with (dx)_a = sum_i d_i (x)_{a+i}.

    A relation failing at (a, b) leaves d.d nonzero on degree a + b, so
    a multicomplex that fails one is refused with `RelationError`.
    """
    if bad := c.validate():
        raise RelationError(bad)
    by_degree: dict = {}
    for (a, b), rank in c.ranks.items():
        by_degree.setdefault(a + b, []).append((a, rank))
    offsets, cuts = {}, {}
    for n, cells in by_degree.items():
        cells.sort(reverse=True)
        offs = offsets[n] = {}
        pos = 0
        for a, rank in cells:
            offs[a] = pos, rank
            pos += rank
        cuts[n] = [-a for a, _ in cells], [start for start, _ in offs.values()] + [pos]

    den = lcm(*[m.den for m in c.maps.values()])
    t = TotalComplex(c.ring, den, offsets, cuts, {})
    for n, offs in offsets.items():
        cols = t._columns[n] = [[0] * t.dim(n - 1) for _ in range(t.dim(n))]
        for a, (cstart, _) in offs.items():
            for i in range(c.maxd + 1):
                m = c.dmap(i, a, n - a)
                if m is None:  # a map into an absent cell has no rows: dropped as zero
                    continue
                scale = den // m.den
                for r, irow in enumerate(m.ints, offsets[n - 1][a - i][0]):
                    for j, v in enumerate(irow, cstart):
                        if v:
                            cols[j][r] = v * scale
    return t
