"""The total complex of a multicomplex, with its column filtration.

Per total degree n the basis collects the bidegree blocks (a, n-a) in
descending a, so the filtration F_p (first index a <= p) is always a
coordinate suffix and membership is a mask, not a solve.  d.d = 0 is
checked on the nonzero entries placed.
"""

from __future__ import annotations

from bisect import bisect_left
from math import lcm

from .linalg import Mat
from .multicomplex import Multicomplex


class TotalComplex:
    __slots__ = ("ring", "_blocks", "_offsets", "_dims", "_cuts", "_diff")

    def __init__(self, ring, blocks, offsets, dims, cuts, diff):
        self.ring = ring
        self._blocks = blocks      # n -> [(a, b, rank)] descending a
        self._offsets = offsets    # n -> {a: (start, rank)}
        self._dims = dims          # n -> total dimension
        self._cuts = cuts          # n -> ([-a per block], [block starts..., dimension])
        self._diff = diff          # n -> Mat (Tot_n -> Tot_{n-1})

    def degrees(self):
        return sorted(self._dims)

    def dim(self, n: int) -> int:
        return self._dims.get(n, 0)

    def blocks(self, n: int):
        """The (a, n-a, rank) blocks of the degree-n basis, in its order: descending a."""
        return self._blocks.get(n, [])

    def d(self, n: int) -> Mat:
        m = self._diff.get(n)
        if m is None:
            m = Mat.zeros(self.ring, self.dim(n - 1), self.dim(n))
        return m

    def block_start(self, n: int, a: int):
        """Offset and width of the (a, n-a) block, or (None, 0) if absent."""
        return self._offsets.get(n, {}).get(a, (None, 0))

    def filtration_start(self, n: int, p: int) -> int:
        """First coordinate with filtration index <= p (they form a suffix)."""
        cols, starts = self._cuts.get(n, ((), (0,)))
        return starts[bisect_left(cols, -p)]


def totalize(c: Multicomplex) -> TotalComplex:
    """Assemble Tot with (dx)_a = sum_i d_i (x)_{a+i}; d.d = 0 is asserted."""
    by_degree: dict = {}
    for (a, b), rank in c.ranks.items():
        by_degree.setdefault(a + b, []).append((a, b, rank))
    blocks, offsets, dims, cuts = {}, {}, {}, {}
    for n, cells in by_degree.items():
        cells.sort(key=lambda t: -t[0])
        blocks[n] = cells
        offs, starts = {}, []
        pos = 0
        for a, b, rank in cells:
            offs[a] = pos, rank
            starts.append(pos)
            pos += rank
        offsets[n] = offs
        dims[n] = pos
        cuts[n] = [-a for a, _, _ in cells], starts + [pos]

    diff = {}
    nonzero = {}  # n -> [(row, entry)] per column of d_n, integers over one denominator
    den = lcm(*[m._int_form()[1] for m in c.maps.values()])
    zero = c.ring.zero()
    for n in sorted(dims):
        rows_n = dims.get(n - 1, 0)
        cols_n = dims[n]
        cols = nonzero[n] = [[] for _ in range(cols_n)]
        if rows_n == 0 or cols_n == 0:
            continue
        grid = [[zero] * cols_n for _ in range(rows_n)]
        for a, b, rank in blocks[n]:
            cstart = offsets[n][a][0]
            for i in range(c.maxd + 1):
                m = c.dmap(i, a, b)
                if m is None:
                    continue
                rstart, _ = offsets[n - 1].get(a - i, (None, 0))
                if rstart is None:
                    raise AssertionError("structure map into an absent block")
                ints, d = m._int_form()
                for r, (mrow, irow) in enumerate(zip(m.data, ints), rstart):
                    grid[r][cstart:cstart + rank] = mrow
                    for col, v in zip(cols[cstart:cstart + rank], irow):
                        if v:
                            col.append((r, den // d * v))
        diff[n] = Mat._raw(c.ring, rows_n, cols_n, grid)

    # d_{n-1} d_n, summed over the pairs of nonzero entries that chain.
    degrees, sums = [], []
    for n, cols in nonzero.items():
        for col in cols:
            acc = {}
            for k, v in col:
                for i, w in nonzero[n - 1][k]:
                    acc[i] = acc.get(i, 0) + v * w
            degrees += [n] * len(acc)
            sums += acc.values()
    if bad := [n for n, x in zip(degrees, c.ring.scalars(sums)) if x]:
        raise AssertionError(f"total differential does not square to zero at degree {min(bad)}")
    return TotalComplex(c.ring, blocks, offsets, dims, cuts, diff)
