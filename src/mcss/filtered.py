"""Ground truth: the spectral sequence of the filtered total complex.

Pages are computed from first principles on Tot C, from nothing but the
total differential d and the column filtration F_p (never witnesses):
the r-cycles are ZZ_r^p = F_p intersected with d^{-1}(F_{p-r}), the
r-boundaries are BB_r^p = ZZ_{r-1}^{p-1} + d ZZ_{r-1}^{p+r-1}, and the
differential is [x] -> [dx].  Tot stores each d_n as the integer columns
this route reduces, over one denominator for every degree: spans are
scale-free, so the reductions and `homology` take the columns as they are.

The Tot basis runs in descending column order, so F_p is a coordinate
suffix and dx lies in F_{p-r} exactly when dx vanishes on the rows above
cut = start of F_{p-r} in Tot_{n-1}.  So, as for persistent homology
(Zomorodian-Carlsson 2005; Romero-Rubio-Sergeraert 2006), one elimination
of the columns of d restricted to F_p, scanning rows top down, yields
ZZ_r^p for every r: one echelon form of the columns [d|F_p ; I] over
every ring, snapshotted before the first row of every filtration block
of Tot_{n-1}.  With k the number of pivot rows above the cut, the
columns past the k pivots span ZZ_r^p in their I part and d ZZ_r^p in
their d part.  Every reader reads the I part on F_p's first block only,
so only that block of I is carried: cutting is linear, and the rows are
those of the full elimination cut to it.

Entries live in one cell.  F_p starts with the (p, n-p) block; the
projection pi_p onto it kills ZZ_r^p meet F_{p-1} = ZZ_{r-1}^{p-1}, which
lies in BB_r^p, so E_r^p = pi_p(ZZ_r^p) / pi_p(d ZZ_{r-1}^{p+r-1}) over
any ring, Z included (McCleary, A User's Guide to Spectral Sequences,
2001, 2.2).  The reduction's suffix spans pi_p(ZZ_r^p), so `zz` is the
span of its cycles.  The boundaries of ZZ_{r-1}^{p+r-1} are those of the
suffix at the cut of F_{p-1}, which span what the final pivot rows from
there on span, as the elimination never changes a pivot row again: cut
to the block, `bb` is the pivot rows with pivots in it, already in
echelon form and only reduced.  No module is built in Tot_n.  F_{p-r} of
Tot_{n-1} is zero once p - r is left of its least column, and F_{p+r-1}
of Tot_{n+1} is all of it once p + r - 1 reaches its greatest: from that
settle page s on both projections are constant, and `entry` serves page s,
as it serves page r-1 for a page r whose neighbouring blocks are absent.
E_{r+1} is a subquotient of E_r, so once zz = bb they stay equal, and that
page serves every later one: an entry's last page starts at s and drops
to the first page found zero.  A page past it is a lookup that returns the
last page's entry object; nothing is built or stored for it, as an entry
is its two modules, not its (r, p, n).

`compare` checks per cell that the projected modules equal the witness
route's Z_r and B_r, which makes pi_p an isomorphism of entries, and then
the square pi_p . [dx] = Delta_r . pi_p on a generating set of ZZ_r^p.
Past both routes' last pages a cell's entries are objects it has already
checked, so it counts such a cell without comparing it again.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property

from .linalg import (
    Mat,
    MembershipError,
    SubmodulePresentation,
    _echelon,
    _reduce,
    _smith,
    _with_identity,
    solve,
    subquotient,
)
from .multicomplex import Multicomplex
from .pages import SpectralPages
from .total import TotalComplex, totalize


@dataclass(frozen=True)
class FilteredEntry:
    """E_r^p = zz / bb in the coordinates of the (p, n-p) cell, of rank 0 when it is absent.

    The (r, p, n) it serves is the caller's key.
    """

    zz: SubmodulePresentation
    bb: SubmodulePresentation

    @cached_property
    def quot(self):
        return subquotient(self.zz, self.bb)

    @property
    def invariants(self):
        return self.quot.invariants


@dataclass(frozen=True)
class HomologyGroup:
    n: int
    invariants: tuple


@dataclass
class CellFailure:
    r: int
    p: int
    q: int
    kind: str
    detail: str = ""

    def __str__(self):
        msg = f"r={self.r} cell ({self.p},{self.q}): {self.kind}"
        return f"{msg} ({self.detail})" if self.detail else msg


@dataclass
class ComparisonReport:
    max_r: int
    cells_checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


class _Reduction:
    """The columns of d_n restricted to F_p (from coordinate `start` on), eliminated once.

    Column j is Tot's stored column, d_n times Tot's one denominator den;
    on F_p's first block, the (p, n-p) cell of width w, it is the row
    [col_j | den e_j] (den is 1 over ZZ), and past it [col_j | 0]:
    eliminating the nrows = dim Tot_{n-1} leading entries carries the
    first block's coordinates of c along with dc.  Pivots lie below nrows
    and cutting is linear, so these are the rows of the elimination with
    every column's transform cut to that block; no reader reads past it.
    The snapshot rows are the block starts of Tot_{n-1}.  `pivots` are
    the leading rows, in Tot_{n-1}, in increasing order.  `suffix[k]`, for
    every k that a filtration cut of Tot_{n-1} can give, is a list of rows
    [dc | c]: the cycles c span the first block's part of the elements
    whose boundary vanishes on every row above pivots[k] (every row, when
    k = len(pivots)).  Over QQ a row is fixed up to a scalar that dc and c
    share: `compare` and `delta` read them together, spans ignore it, and
    so the denominator may be any common one.  The elimination stops at
    echelon form, over every ring.

    `rows` are the final pivot rows.  `_echelon` leaves a pivot row alone
    once chosen, so rows[k:] and suffix[k] span one module; cut to a
    range of Tot_{n-1} from pivots[k] on, it is spanned by the pivot rows
    whose pivots lie in the range, already in echelon form.
    """

    __slots__ = ("pivots", "suffix", "rows")

    def __init__(self, t: TotalComplex, n: int, start: int):
        nrows, starts = t.dim(n - 1), t.block_starts(n)
        cols = t.columns(n)[start:]
        w = starts[bisect_right(starts, start)] - start if cols else 0
        pad = [0] * w
        snaps = dict.fromkeys(t.block_starts(n - 1))
        vecs, self.pivots = _echelon(
            t.ring, _with_identity(cols[:w], t.den) + [col + pad for col in cols[w:]], nrows, snaps)
        self.rows = vecs[:len(self.pivots)]
        self.suffix = dict(snaps.values())


class FilteredPages:
    """Filtered-route page engine on a total complex, with caches."""

    def __init__(self, t: TotalComplex):
        self.t = t
        self._zz = {}          # (r, p, n) -> pi_p(ZZ_r^p) in the (p, n-p) cell
        self._spans = {}       # (key, lo, hi) -> span of a suffix cut to [lo, hi)
        self._bounds = {}      # (key, lo, hi) -> span of the pivot rows cut to [lo, hi)
        self._reductions = {}  # (n, start) -> _Reduction
        self._last = {}        # (p, n) -> last page on which the entry may change
        self._entries = {}

    def _key(self, r: int, p: int, n: int):
        """(n, start, k): the reduction of d_n on F_p and the cut of F_{p-r}."""
        t = self.t
        start = t.filtration_start(n, p)
        red = self._reductions.get((n, start))
        if red is None:
            red = self._reductions[(n, start)] = _Reduction(t, n, start)
        return n, start, bisect_left(red.pivots, t.filtration_start(n - 1, p - r))

    def _suffix(self, key):
        n, start, k = key
        return self._reductions[(n, start)].suffix[k]

    def _span(self, key, lo, hi):
        """The span of the suffix rows [dc | c] cut to [lo, hi) past dim Tot_{n-1}: cycles."""
        cached = self._spans.get((key, lo, hi))
        if cached is None:
            cached = self._spans[key, lo, hi] = SubmodulePresentation.span(
                self.t.ring, hi - lo, [v[lo:hi] for v in self._suffix(key)])
        return cached

    def zz(self, r: int, p: int, n: int) -> SubmodulePresentation:
        """pi_p(ZZ_r^p), ZZ_r^p = F_p intersected with d^{-1}(F_{p-r}) in Tot_n."""
        if r < 0:
            raise ValueError("page index must be >= 0")
        if (r, p, n) not in self._zz:
            lo = self.t.dim(n - 1)  # a suffix row's cycle follows its boundary
            self._zz[r, p, n] = self._span(self._key(r, p, n), lo, lo + self.t.block_start(n, p)[1])
        return self._zz[r, p, n]

    def bb(self, r: int, p: int, n: int) -> SubmodulePresentation:
        """pi_p(BB_r^p) = pi_p(d ZZ_{r-1}^{p+r-1}): pi_p kills ZZ_{r-1}^{p-1}.

        The boundaries of ZZ_{r-1}^{p+r-1} are those of the reduction's
        suffix at the block's start, k pivots in.  Cut to the block they
        are spanned by the final pivot rows with pivots in it, in echelon
        form already: reduced, they are the canonical form.
        """
        t = self.t
        width = t.block_start(n, p)[1]
        if r == 0:
            return SubmodulePresentation.zero(t.ring, width)
        lo = t.filtration_start(n, p)
        hi = lo + width
        key = self._key(r - 1, p + r - 1, n + 1)
        cached = self._bounds.get((key, lo, hi))
        if cached is None:
            m, start, k = key
            red, ring = self._reductions[(m, start)], t.ring
            end = bisect_left(red.pivots, hi, k)
            pivots = [c - lo for c in red.pivots[k:end]]
            rows = _reduce(ring, [v[lo:hi] for v in red.rows[k:end]], pivots)
            cached = self._bounds[key, lo, hi] = SubmodulePresentation(
                ring, width, ring.primitive(rows, pivots), pivots, _canonical=True)
        return cached

    def settle(self, p: int, n: int) -> int:
        """The page s from which pi_p(ZZ_r^p) and pi_p(BB_r^p) are constant."""
        below, above = self.t.blocks(n - 1), self.t.blocks(n + 1)
        lo = min(p, below[-1][0]) if below else p
        hi = max(p, above[0][0]) if above else p
        return max(1 + p - lo, 1 + hi - p)

    def entry(self, r: int, p: int, n: int) -> FilteredEntry:
        """pi_p(ZZ_r^p) / pi_p(BB_r^p), the quotient built when read.

        A page past the cell's last page is that page's entry object.  With
        no basis vector in column p of degree n, pi_p projects onto a block
        of width 0: zz and bb are the rank-0 zero module.
        """
        s = min(r, self._last.get((p, n)) or self._last.setdefault((p, n), self.settle(p, n)))
        e = self._entries.get((s, p, n))
        if e is not None:
            return e
        t = self.t
        # Page s has page s-1's modules when F_{p-s+1} = F_{p-s} in Tot_{n-1}
        # and F_{p+s-1} = F_{p+s-2} in Tot_{n+1}: both blocks are absent.
        while s > 1 and (s, p, n) not in self._entries and not (
                t.block_start(n - 1, p - s + 1)[1] or t.block_start(n + 1, p + s - 1)[1]):
            s -= 1
        if s < r:  # a served page: page s's entry, never built again
            e = self.entry(s, p, n)
            if r <= self._last[(p, n)]:  # kept under r too, which ends the next walk down
                self._entries[(r, p, n)] = e
            return e
        e = self._entries[(r, p, n)] = FilteredEntry(self.zz(r, p, n), self.bb(r, p, n))
        if e.zz == e.bb:  # E_r = 0: both projections stay equal to it
            self._last[(p, n)] = r
        return e

    def delta(self, r: int, p: int, n: int):
        """Matrix rows of [x] -> [dx] in canonical quotient generators.

        Each quotient generator is lifted by one solve against the ZZ_r^p
        cycles cut to the block; the same combination of their boundaries,
        each cycle's with its scale, is dx, whose (p-r) block is reduced in
        the target entry.
        """
        src = self.entry(r, p, n)
        tgt = self.entry(r, p - r, n - 1)
        cols = []
        if src.invariants and tgt.invariants:
            t = self.t
            nrows, start = t.dim(n - 1), t.filtration_start(n - 1, p - r)
            width, end = src.zz.ambient_rank, start + tgt.zz.ambient_rank
            rows = self._suffix(self._key(r, p, n))
            lifts = Mat.from_ints(t.ring, width, len(rows),
                                  [[g[i] for g in rows] for i in range(nrows, nrows + width)])
            bounds = Mat.from_ints(t.ring, end - start, len(rows),
                                   [[g[i] for g in rows] for i in range(start, end)])
            for x in src.quot.gens:
                cols.append(tgt.quot.reduce(bounds.matvec(solve(lifts, x))))
        return tuple(tuple(col[i] for col in cols) for i in range(len(tgt.invariants)))


def homology(t: TotalComplex) -> dict:
    """{n: H_n} as invariant factors, for every degree n with Tot_n nonzero.

    From one canonical span of each boundary map's stored columns
    (Munkres, Elements of Algebraic Topology, 1984, 11;
    Kaczynski-Mischaikow-Mrozek, Computational Homology, 2004, ch. 3):
    H_n = Z^(dim Tot_n - rk d_n - rk d_{n+1}) plus, over Z, the torsion of
    coker d_{n+1}.  In the Hermite basis of im d_{n+1} a pivot 1 has a
    pivot row zero off its column (entries left of a pivot lie in
    [0, pivot)) and splits off as Z/1, so the torsion is the Smith form of
    the other columns on the rows where they are not all zero: `snf`'s
    loop with no U tails and no lifts, as only its diagonal is read.
    """
    degrees = t.degrees()
    images = {m: SubmodulePresentation.span(t.ring, t.dim(m - 1), t.columns(m))
              for m in sorted({*degrees, *(n + 1 for n in degrees)})}
    groups = {}
    for n in degrees:
        b = images[n + 1]
        torsion = ()
        cols = [] if t.ring.is_field else [g for g, r in zip(b.rows, b.pivots) if g[r] != 1]
        if cols:
            rows = [i for i in range(b.ambient_rank) if any(g[i] for g in cols)]
            grid = [[g[i] for g in cols] for i in rows]
            d = _smith(grid, len(cols))
            torsion = tuple(x for x in (d[k][k] for k in range(len(cols))) if x > 1)
        groups[n] = HomologyGroup(n, torsion + (0,) * (t.dim(n) - images[n].rank - b.rank))
    return groups


def compare(c: Multicomplex, max_r: int | None = None) -> ComparisonReport:
    """Cross-check the two routes on every support cell for all r <= max_r.

    Per cell: (a) the filtered entry's projected modules pi_p(ZZ_r^p) and
    pi_p(d ZZ_{r-1}^{p+r-1}) equal the witness route's Z_r and B_r; (b)
    on every ZZ_r^p generator g, the (p-r) block of dg reduced in the
    target entry is Delta_r of the class of pi_p(g).
    """
    sp = SpectralPages(c)
    fp = FilteredPages(totalize(c))
    return compare_engines(sp, fp, max_r)


def compare_engines(sp: SpectralPages, fp: FilteredPages,
                    max_r: int | None = None) -> ComparisonReport:
    """`compare` on given engines; equal modules share the witness subquotient.

    The square skips generators inside F_{p-1}, which project to zero and
    lie in BB_r^p, and cells whose target is absent: both sides are zero.
    Past both routes' last pages each returns the entry objects of its last
    page, so a cell whose modules passed at the later of the two is counted
    on later pages without a second look.  Its square there is empty: past
    the witness route's last page the source is zero or the target absent.
    A cell that failed is checked again on every page.
    """
    c = sp.c
    t = fp.t
    if max_r is None:
        max_r = sp.stabilization_bound()
    report = ComparisonReport(max_r=max_r)
    done = {}  # cell -> the page, at or past both last pages, where its modules passed
    for r in range(0, max_r + 1):
        for (p, q) in c.support:
            report.cells_checked += 1
            if r > done.get((p, q), r):
                continue
            n = p + q
            fe = fp.entry(r, p, n)
            se = sp.entry(r, p, q)
            differ = [name for name, a, b in (("Z_r", fe.zz, se.zr), ("B_r", fe.bb, se.br))
                      if a != b]
            if differ:
                report.failures.append(CellFailure(
                    r, p, q, "modules differ", f"filtered and witness {' and '.join(differ)}"))
                continue
            if r >= sp._last[(p, q)] and r >= fp._last[(p, n)]:
                done[(p, q)] = r
            tw = c.rank(p - r, q + r - 1)
            if not se.quot.invariants or not tw:
                continue
            sd = sp.delta(r, p, q)
            tgt = sp.entry(r, p - r, q + r - 1).quot
            nrows, start = t.dim(n - 1), t.filtration_start(n - 1, p - r)
            end = nrows + c.rank(p, q)
            for g in fp._suffix(fp._key(r, p, n)):
                x = g[nrows:end]
                if not any(x):
                    continue
                try:
                    lhs = tgt.reduce(g[start:start + tw])
                except MembershipError as exc:
                    report.failures.append(CellFailure(
                        r, p, q, "boundary escaped target cycles", str(exc)))
                    break
                rhs = sd.apply(se.quot.reduce(x), tgt)
                if lhs != rhs:
                    report.failures.append(CellFailure(
                        r, p, q, "square does not commute",
                        f"psi.delta gives {lhs}, Delta.psi gives {rhs}"))
                    break
    return report
