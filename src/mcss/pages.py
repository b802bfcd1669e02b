"""Spectral sequence pages computed inside single columns, via witnesses.

The paper's cycle system at a cell (p, q) and page r has the unknowns
(x, z_1, ..., z_{r-1}), x in C_{p,q} and z_j in C_{p-j, q+j}, and the
rows d_n x - sum_{j=1}^{n} d_{n-j} z_j for 0 <= n < r.  The x parts of
its kernel K_r span the r-cycles Z_r; solved on the z columns for a
fixed x, it gives the witnesses of x.  The page differential sends [x]
to [d_r x - sum_{i=1}^{r-1} d_i z_{r-i}].

The systems nest: the one for r + 1 adds the unknown z_r and the row
n = r, and the old rows are zero on z_r.  So each cell keeps one chain.
With V_r = d_r x - sum_{i=1}^{r-1} d_i z_{r-i} in C_{p-r, q+r-1} on the
canonical generators g_k of K_r, K_1 = ker d_0, and K_{r+1} is the
kernel of the one-cell matrix [V_r | -d_0 on C_{p-r, q+r}], each
solution (t, z_r) giving the generator (sum_k t_k g_k, z_r): one
elimination carries that image along.  This is exact over Z too, since
V is linear in t.  Z_r is read off K_r's canonical generators whose
pivot lies in the x block, without an elimination, and so are the
witnesses: x is one combination of those x parts, and the same
combination of the generators' z parts witnesses it.  The same
combination of their values V_r is Delta_r [x]: `witness` solves for the
combination, and the differential is read off V_r, with no map applied
again.

The paper's boundary system, on co-witnesses c_k in C_{p+k, q-k+1},
0 <= k < r, with the rows sum_{k=l}^{r-1} d_{k-l} c_k for 1 <= l < r,
leaves c_0 free; with x = c_{r-1} and z_j = -c_{r-1-j} its rows are the
cycle system at (r-1, p+r-1, q-r+2).  Its values sum_k d_k c_k span B_r,
so B_1 = im d_0 and B_r = B_{r-1} + V_{r-1}(p+r-1, q-r+2), with no
co-witness system built.  Only the tests build the full systems, as an
independent oracle (`tests/oracles.py`).

The map bidegrees keep every system inside nearby cells, and d_i is
absent for i > maxd: V_r is read off the at most maxd + 1 blocks of row
r that carry a map, at the chain's block offsets.  Row r lands in degree
n-1 at (p-r, q+r-1), and page r adds boundary values from degree n+1 at
(p+r-1, q-r+2).  So Z_r is constant from r_z = 1 + p - (least column of
degree n-1 left of p) on, and B_r from r_b = 1 + (greatest column of
degree n+1 right of p) - p on, each 1 without such a column: the chain
ends at r_z or at Z_r = 0, and `br` fills B_r up to r_b.  Past the
settle page s = max(r_z, r_b) an entry is served from page s, and its
differential lands in an absent cell.  A page builds Delta_r only out of
a nonzero entry into a present cell: any other has no source generator
or no target coordinate, so it is zero, with no value to check.  Nor
does it solve a witness where Z_{r+1} = Z_r at the source: ker Delta_r
= Z_{r+1}/B_r and im Delta_r = B_{r+1}/B_r (McCleary 2001, Thm 2.6),
so Delta_r is zero exactly there, and B_{r+1} = B_r at its target takes
no span.  E_{r+1} is a subquotient of E_r, so Z_r = B_r gives Z_{r'} =
B_{r'} = Z_r for r' > r, as Z shrinks, B grows and B <= Z (McCleary
2001, 2.2): a cell's last page starts at s and drops to the first page
found zero, which serves every later page: a page past it returns the
last page's entry object, and builds or stores nothing, since an entry
is Z_r, B_r and their quotient, not its (r, p, q).
A page r whose neighbouring cells (p-r+1, q+r-2) and (p+r-1, q-r+2) are
both absent is served from page r-1: E_r = E_{r-1}.  One subquotient
Z_r/B_r serves every (r, p, q) with an equal module pair.  A whole page
asks only for its live cells: built right after page r-1, it keeps that
page's entry for every cell past its last page, and such a cell has no
Delta_r, as it is zero or its target is absent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from operator import mul

from .linalg import (
    Mat,
    MembershipError,
    QuotientPresentation,
    SubmodulePresentation,
    _kernel_image,
    image,
    kernel,
    solve,
    subquotient,
)
from .multicomplex import Multicomplex


class WellDefinednessError(RuntimeError):
    """A page differential value escaped the target cycle module.

    This never happens for a valid multicomplex; it signals an engine bug
    or invalid input and must abort loudly.
    """


@dataclass(frozen=True)
class PageEntry:
    """Z_r / B_r at one cell; the (r, p, q) it serves is the caller's key."""

    zr: SubmodulePresentation
    br: SubmodulePresentation
    quot: QuotientPresentation

    @property
    def invariants(self):
        return self.quot.invariants


@dataclass(frozen=True)
class PageDifferential:
    """Matrix of the page differential in the canonical quotient generators."""

    r: int
    p: int
    q: int
    source_invariants: tuple
    target_invariants: tuple
    rows: tuple  # len(target_invariants) x len(source_invariants)

    @property
    def target(self):
        return (self.p - self.r, self.q + self.r - 1)

    def is_zero(self) -> bool:
        return all(not v for row in self.rows for v in row)

    def apply(self, coords, target_quot: QuotientPresentation):
        out = [sum(map(mul, row, coords)) for row in self.rows]
        return target_quot.canon(out)


class Page:
    """One page's entries, and its Delta_r out of nonzero entries into present cells."""

    def __init__(self, r, entries, deltas):
        self.r = r
        self.entries = entries  # (p, q) -> PageEntry
        self.deltas = deltas    # (p, q) -> PageDifferential; the omitted ones are zero

    def invariants_table(self):
        return {cell: e.invariants for cell, e in sorted(self.entries.items()) if e.invariants}


class SpectralPages:
    """Witness-route page engine for one multicomplex, with per-cell caches."""

    def __init__(self, c: Multicomplex):
        if bad := c.validate():
            raise ValueError(f"invalid multicomplex: {bad[0]}")
        self.c = c
        self._br = {}  # (r, p, q) -> B_r, for r up to the cell's r_b
        self._chains = {}  # (p, q) -> [(Z_1, V_1, K_1), ..., (Z_s, V_s, K_s)]
        self._quotients = {}  # (zr, br) -> subquotient
        self._last = {}  # (p, q) -> last page on which E_r may change
        self._entries = {}
        self._built = None  # (r, the entries of page r), kept apart from the returned Page

    # -- cycle and boundary modules ------------------------------------

    def _cycle_row(self, n, p, q):
        """Row n, d_n x - sum_{j=1}^{n} d_{n-j} z_j; its last block is -d_0 z_n."""
        c = self.c
        return (c.rank(p - n, q + n - 1),
                [(0, c.dmap(n, p, q), False)]
                + [(j, c.dmap(n - j, p - j, q + j), True)
                   for j in range(max(1, n - c.maxd), n + 1)])

    def zr(self, r: int, p: int, q: int) -> SubmodulePresentation:
        return self._chain(r, p, q)[0]

    def br(self, r: int, p: int, q: int) -> SubmodulePresentation:
        """B_1 = im d_0, and B_s = B_{s-1} + V_{s-1} at (p+s-1, q-s+2).

        That cell lies in the support only for s <= r_b, so B_r is B_s at
        s = min(r, r_b), filled forward from the last page `_br` holds.
        im Delta_{s-1} = B_s/B_{s-1}, and Delta_{s-1} out of that cell is
        zero exactly when its Z_s equals its Z_{s-1} (or its last page is
        below s): then B_s = B_{s-1}, with no span.
        """
        if r < 1:
            raise ValueError("r-boundaries are defined for r >= 1")
        c = self.c
        nx = c.rank(p, q)
        if not nx:
            return SubmodulePresentation.zero(c.ring, 0)
        top = min(r, self._reaches[(p, q)][1])
        last = next((s for s in range(top, 0, -1) if (s, p, q) in self._br), 0)
        b = self._br.get((last, p, q))
        for s in range(last + 1, top + 1):
            src = (p + s - 1, q - s + 2)
            if s == 1:
                m = c.dmap(0, p, q + 1)
                b = image(m) if m is not None else SubmodulePresentation.zero(c.ring, nx)
            elif c.rank(*src) and self._last.get(src, s) >= s:
                zs, (values, _), _ = self._chain(s - 1, *src)
                if self.zr(s, *src) != zs:
                    b = SubmodulePresentation.span(c.ring, nx, b.rows + tuple(values))
            self._br[(s, p, q)] = b
        return b

    def _chain(self, r, p, q):
        """(Z_r, V_r, K_r) at (p, q), extending the cell's chain K_1, K_2, ... to r.

        Every step keeps its K_s, so a witness can be read off any page.
        The chain ends at s = r_z, where Z_s stops changing and V_s lands
        outside the support, or once Z_s is zero.  From then on every
        generator has x = 0, and such a (0, z_1, ..., z_s) is, up to sign,
        an element of the chain at (p-1, q+1) one page back, so its value
        already lies in the B_s it would add to.  Every later page gets
        the last step: the same Z and no values.
        """
        if r < 1:
            raise ValueError("r-cycles are defined for r >= 1")
        c = self.c
        nx = c.rank(p, q)
        if not nx:
            zero = SubmodulePresentation.zero(c.ring, 0)
            return zero, ([], 1), zero
        steps = self._chains.setdefault((p, q), [])
        end = self._reaches[(p, q)][0]
        while len(steps) < min(r, end) and (not steps or steps[-1][0].rank):
            s = len(steps) + 1
            if s == 1:
                m0 = c.dmap(0, p, q)
                k = kernel(m0) if m0 is not None else SubmodulePresentation.full(c.ring, nx)
            else:
                zr, values, k0 = steps[-1]
                k = self._extend(k0, s - 1, p, q, values)
            if s == 1 or k is not k0:  # an empty step keeps K_s and Z_s
                zr = k.prefix(nx)
            values = self._values(s, p, q, k, steps) if zr.rank and s < end else ([], 1)
            steps.append((zr, values, k))
        return steps[min(r, len(steps)) - 1]

    def _values(self, s, p, q, k, steps):
        """V_s on K_s's rows, as (integer columns, one denominator), ([], 1) if zero.

        Row s without its -d_0 z_s block (z_s is not an unknown of K_s)
        meets x and the z_j, s - maxd <= j < s, read at the chain's offsets.
        """
        c = self.c
        if not c.rank(p - s, q + s - 1):
            return [], 1
        tr, row = self._cycle_row(s, p, q)
        ends = [st[2].ambient_rank for st in steps[max(0, s - c.maxd - 1):]] + [k.ambient_rank]
        spans = [(0, c.rank(p, q))] + list(zip(ends, ends[1:]))  # one short: drops -d_0 z_s
        used = [(m, -1 if negate else 1, a, b)
                for (_, m, negate), (a, b) in zip(row, spans) if m is not None]
        if not used:
            return [], 1
        den = lcm(*[m.den for m, _, _, _ in used])
        grid = [[sign * (den // m.den) * v for m, sign, _, _ in used for v in m.ints[i]]
                for i in range(tr)]
        dots = c.ring.int_dots
        return [dots(grid, [v for _, _, a, b in used for v in g[a:b]]) for g in k.rows], den

    def _extend(self, k, s, p, q, values):
        """K_{s+1} from K_s and V_s: the image of the kernel of [V_s | -d_0 on z_s].

        With V_s zero it is K_s + Z_1 at the z_s cell (K_s if it is absent).
        Else one elimination carries the image along: K_s's row g_k as
        [den0 V_s[k] | g_k | 0] and z_s's unknown j as [-vden d_0 e_j | 0 | e_j],
        so each kernel vector (t, z_s) gives the generator (sum t_k g_k, z_s).
        """
        c = self.c
        vals, vden = values
        if not any(map(any, vals)):
            return k.direct_sum(self._chain(1, p - s, q + s)[0]) if c.rank(p - s, q + s) else k
        n, nz, tr = k.ambient_rank, c.rank(p - s, q + s), len(vals[0])
        d0 = c.dmap(0, p - s, q + s)
        den0, d0cols = (d0.den, zip(*d0.ints)) if d0 is not None else (1, [[0] * tr] * nz)
        rows = [[den0 * v for v in val] + list(g) + [0] * nz for val, g in zip(vals, k.rows)]
        neg = c.ring.neg  # residues over GF(p), where vden is 1
        rows += [[neg(vden * x) for x in col] + [0] * n + [int(i == j) for i in range(nz)]
                 for j, col in enumerate(d0cols)]
        return _kernel_image(c.ring, tr, rows)

    # -- entries ---------------------------------------------------------

    @cached_property
    def _reaches(self):
        """(p, q) -> (r_z, r_b): Z_r is constant from r_z on, and B_r from r_b on."""
        ext = {}  # total degree -> (least, greatest) column
        for a, b in self.c.ranks:
            lo, hi = ext.get(a + b, (a, a))
            ext[a + b] = min(lo, a), max(hi, a)
        return {(p, q): (1 + p - min(ext.get(p + q - 1, (p, p))[0], p),
                         1 + max(ext.get(p + q + 1, (p, p))[1], p) - p) for p, q in self.c.ranks}

    def settle(self, p: int, q: int) -> int:
        """The settle page s = max(r_z, r_b): E_r at (p, q) is E_s for every r > s."""
        return max(self._reaches.get((p, q), (1, 1)))

    def entry(self, r: int, p: int, q: int) -> PageEntry:
        """E_r at (p, q); a page past the cell's last page is that page's object."""
        s = min(r, self._last.get((p, q)) or self._last.setdefault((p, q), self.settle(p, q)))
        e = self._entries.get((s, p, q))
        if e is not None:
            return e
        c = self.c
        # E_s = E_{s-1} when Delta_{s-1} into and out of the cell meet absent cells.
        while s > 1 and (s, p, q) not in self._entries and not (
                c.rank(p - s + 1, q + s - 2) or c.rank(p + s - 1, q - s + 2)):
            s -= 1
        if s < r:  # a served page: page s's entry, never built again
            e = self.entry(s, p, q)
            if r <= self._last[(p, q)]:  # kept under r too, which ends the next walk down
                self._entries[(r, p, q)] = e
            return e
        nx = c.rank(p, q)
        zr = self.zr(r, p, q) if r else SubmodulePresentation.full(c.ring, nx)
        br = self.br(r, p, q) if r else SubmodulePresentation.zero(c.ring, nx)
        quot = self._quotients.get((zr, br))
        if quot is None:  # subquotient raises InclusionError on a B_r <= Z_r breach
            quot = self._quotients[(zr, br)] = subquotient(zr, br)
        if not quot.invariants:  # E_r = 0: Z and B equal Z_r on every later page
            self._last[(p, q)] = r
        e = self._entries[(r, p, q)] = PageEntry(zr, br, quot)
        return e

    # -- witnesses ---------------------------------------------------------

    def witness(self, r, p, q, x):
        """x's witness, as t with x = sum_k t_k (x part of row k of K_s).

        K_s is the cell's chain step at r, and its first rank Z_s rows span
        Z_s.  The combination sum_k t_k of K_s's rows is (x, z_1, ...,
        z_{s-1}), the witness of x (past s every z_j is zero: from r_z on
        no row meets a module, or else Z_s = 0 and x = 0), and the same
        combination of their values V_s is Delta_r [x].  Raises if x is
        not an r-cycle.
        """
        zs, _, k = self._chain(r, p, q)  # a row's scale cancels between t and its parts
        cols = Mat.from_ints(self.c.ring, len(x), zs.rank,
                             [[g[i] for g in k.rows[:zs.rank]] for i in range(len(x))])
        t = solve(cols, x)
        if t is None:
            raise MembershipError(f"element is not an r={r} cycle at ({p},{q})")
        return t

    # -- differentials -------------------------------------------------------

    def delta(self, r: int, p: int, q: int) -> PageDifferential:
        """Delta_r at (p, q), zero where the chain's Z_{r+1} equals the source's Z_r.

        ker Delta_r = Z_{r+1}/B_r, so that test (at r = 0: ker d_0 is the
        whole cell) finds every zero map, which is built with no witness.
        It compares modules, not ranks: over Z a sublattice of equal rank
        means a torsion value.  Otherwise Delta_0 is d_0, and for r >= 1,
        with x = sum_k t_k (x part of K_r row k) from `witness`, the value
        is sum_k t_k V_r[k], the paper's formula on the witness of those rows.
        """
        c = self.c
        ring = c.ring
        src = self.entry(r, p, q)
        tp, tq = p - r, q + r - 1
        if not c.rank(tp, tq):  # no coordinates: no witness, no target entry
            return PageDifferential(r, p, q, src.quot.invariants, (), ())
        tgt = self.entry(r, tp, tq)
        if self.zr(r + 1, p, q) == src.zr:
            zero = (ring.zero(),) * len(src.quot.invariants)
            return PageDifferential(r, p, q, src.quot.invariants, tgt.quot.invariants,
                                    (zero,) * len(tgt.quot.invariants))
        if r:
            zs, (vals, den), _ = self._chain(r, p, q)
            # V_r on Z_s's rows, one row per target coordinate.
            vrows = list(zip(*vals[:zs.rank]))

            def value(g):
                (tints,), tden = ring.int_rows((self.witness(r, p, q, g),))
                return ring.dots(vrows, tints, tden * den)
        else:
            value = c.dmap(0, p, q).matvec
        cols = []
        for g in src.quot.gens:
            try:
                cols.append(tgt.quot.reduce(value(list(g))))
            except MembershipError as exc:
                raise WellDefinednessError(
                    f"Delta_{r} value at ({p},{q}) escaped Z_{r} at ({tp},{tq}): {exc}"
                ) from exc
        rows = tuple(tuple(col[i] for col in cols) for i in range(len(tgt.quot.invariants)))
        d = PageDifferential(r, p, q, src.quot.invariants, tgt.quot.invariants, rows)
        if not ring.is_field:
            self._check_torsion_compat(d)
        return d

    def _check_torsion_compat(self, d: PageDifferential):
        for j, ds in enumerate(d.source_invariants):
            for i, dt in enumerate(d.target_invariants if ds else ()):
                val = ds * d.rows[i][j]
                if val % dt if dt else val:
                    raise WellDefinednessError(
                        f"Delta_{d.r} at ({d.p},{d.q}) violates torsion compatibility")

    # -- pages ----------------------------------------------------------------

    def page(self, r: int) -> Page:
        """E_r on the support and Delta_r out of its nonzero entries into present cells.

        Right after page r-1 only the live cells, r <= their last page,
        are asked for: every other one keeps page r-1's entry object,
        which `entry` would return, and has no invariants or an absent
        target, so no Delta_r.  Any other order asks for every cell.
        """
        c = self.c
        built, self._built = self._built, None
        if built is not None and built[0] == r - 1:
            entries = built[1]
            live = [cell for cell in c.support if r <= self._last[cell]]
        else:
            entries, live = {}, c.support
        for cell in live:
            entries[cell] = self.entry(r, *cell)
        deltas = {(p, q): self.delta(r, p, q) for p, q in live
                  if entries[(p, q)].invariants and c.rank(p - r, q + r - 1)}
        self._built = r, entries
        return Page(r, dict(entries), deltas)

    def stabilization_bound(self) -> int:
        """Pages at or beyond this index are all equal (finite support)."""
        cols = [a for a, _ in self.c.ranks]
        return max(cols, default=0) - min(cols, default=0) + 2

