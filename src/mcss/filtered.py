"""Ground truth: the spectral sequence of the filtered total complex.

Pages are computed from first principles on Tot C, from nothing but the
total differential d and the column filtration F_p (never witnesses):
the r-cycles are ZZ_r^p = F_p intersected with d^{-1}(F_{p-r}), the
r-boundaries are BB_r^p = ZZ_{r-1}^{p-1} + d ZZ_{r-1}^{p+r-1}, and the
differential is [x] -> [dx].

The Tot basis runs in descending column order, so F_p is a coordinate
suffix and dx lies in F_{p-r} exactly when dx vanishes on the rows above
cut = start of F_{p-r} in Tot_{n-1}.  So, as for persistent homology
(Zomorodian-Carlsson 2005; Romero-Rubio-Sergeraert 2006), one elimination
of the columns of d restricted to F_p, scanning rows top down, yields
ZZ_r^p for every r: with k the number of pivot rows above the cut,

* over a field, one RREF of [d|F_p^T | I]: the d-parts of the first k
  rows are independent above the cut and the others vanish there, so
  the transform rows from k on span ZZ_r^p, and their d-parts d ZZ_r^p;
* over Z, one column Hermite reduction with transform, snapshotted before
  the first row of every filtration block of Tot_{n-1}: the transform
  columns past the k pivots span ZZ_r^p, the matching Hermite columns
  span d ZZ_r^p.

Cycle modules are cached per (n, start, k) and boundary modules per pair
of such keys.  Canonical echelon and Hermite forms make equal modules
structurally equal, so one subquotient serves every (r, p, n) with an
equal (ZZ, BB) pair, and every result is identical to computing each
(r, p, n) from scratch.

`psi` sends a class [x] on this side to the class of the leading column
projection (x)_p on the witness side; `compare` checks, cell by cell and
generator by generator, that psi matches invariants and intertwines the
two differentials.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .linalg import (
    MembershipError,
    SubmodulePresentation,
    _hnf_columns,
    _rref_field,
    image,
    kernel,
    subquotient,
    vec_sub,
)
from .multicomplex import Multicomplex
from .pages import SpectralPages
from .total import FilteredVector, TotalComplex, totalize


@dataclass(frozen=True)
class FilteredEntry:
    r: int
    p: int
    n: int
    zz: SubmodulePresentation | None
    bb: SubmodulePresentation | None
    quot: object  # QuotientPresentation | None when pruned trivial

    @property
    def invariants(self):
        return () if self.quot is None else self.quot.invariants

    @property
    def gens(self):
        return () if self.quot is None else self.quot.gens


@dataclass(frozen=True)
class HomologyGroup:
    n: int
    invariants: tuple

    @property
    def free_rank(self) -> int:
        return sum(1 for d in self.invariants if d == 0)

    @property
    def torsion(self) -> tuple:
        return tuple(d for d in self.invariants if d)


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
    """The columns of d_n restricted to F_p (from coordinate `start` on), reduced once.

    `pivots` are the leading rows, in Tot_{n-1}, in increasing order.
    `suffix[k]` is (cycles, images) for every k that a filtration cut of
    Tot_{n-1} can give: cycles, in local F_p coordinates, span the
    elements whose boundary vanishes on every row above pivots[k] (every
    row, when k = len(pivots)), and images are their boundaries.  Over
    QQ they are the integer rows of the elimination, each fixed only up
    to a scalar; they are only ever spanned, which is scale-free.
    """

    __slots__ = ("pivots", "suffix")

    def __init__(self, t: TotalComplex, n: int, start: int):
        ring = t.ring
        dmat = t.d(n)
        nrows = dmat.rows
        cols = [dmat.col(j) for j in range(start, dmat.cols)]
        bounds = [0]
        for _, _, rank in t.blocks(n - 1):
            bounds.append(bounds[-1] + rank)
        if ring.is_field:
            width = len(cols)
            aug = [col + [1 if i == j else 0 for i in range(width)] for j, col in enumerate(cols)]
            reduced, self.pivots = _rref_field(ring, aug, limit=nrows)
            cycles = [row[nrows:] for row in reduced]
            images = [row[:nrows] for row in reduced]
            levels = {bisect_left(self.pivots, b) for b in bounds}
            self.suffix = {k: (cycles[k:], images[k:]) for k in levels}
        else:
            snaps = dict.fromkeys(bounds)
            _, _, self.pivots, _ = _hnf_columns(cols, nrows, transform=True, snaps=snaps)
            self.suffix = {k: (v, h) for k, h, v in snaps.values()}


class FilteredPages:
    """Filtered-route page engine on a total complex, with caches."""

    def __init__(self, t: TotalComplex):
        self.t = t
        self._zz = {}          # (r, p, n) -> ZZ_r^p in Tot_n
        self._reductions = {}  # (n, start) -> _Reduction
        self._cycles = {}      # (n, start, k) -> cycle module
        self._boundaries = {}  # (low cycle key, high cycle key) -> boundary module
        self._quotients = {}   # (zz, bb) -> subquotient
        self._entries = {}
        self._deltas = {}

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

    def _cycle_module(self, key) -> SubmodulePresentation:
        res = self._cycles.get(key)
        if res is None:
            n, start, _ = key
            pad = [0] * start
            gens = [pad + list(c) for c in self._suffix(key)[0]]
            res = SubmodulePresentation.span(self.t.ring, self.t.dim(n), gens)
            self._cycles[key] = res
        return res

    def zz(self, r: int, p: int, n: int) -> SubmodulePresentation:
        """F_p intersected with d^{-1}(F_{p-r}) in Tot_n."""
        if r < 0:
            raise ValueError("page index must be >= 0")
        key = (r, p, n)
        cached = self._zz.get(key)
        if cached is None:
            cached = self._zz[key] = self._cycle_module(self._key(r, p, n))
        return cached

    def bb(self, r: int, p: int, n: int) -> SubmodulePresentation:
        """ZZ_{r-1}^{p-1} + d ZZ_{r-1}^{p+r-1} in Tot_n (ZZ_0^{p-1} at r = 0)."""
        if r == 0:
            return self.zz(0, p - 1, n)
        low = self._key(r - 1, p - 1, n)
        high = self._key(r - 1, p + r - 1, n + 1)
        res = self._boundaries.get((low, high))
        if res is None:
            gens = [list(g) for g in self._cycle_module(low).gens] + self._suffix(high)[1]
            res = SubmodulePresentation.span(self.t.ring, self.t.dim(n), gens)
            self._boundaries[(low, high)] = res
        return res

    def entry(self, r: int, p: int, n: int) -> FilteredEntry:
        key = (r, p, n)
        cached = self._entries.get(key)
        if cached is not None:
            return cached
        t = self.t
        # When no basis vector sits in column p of degree n, F_p = F_{p-1}
        # there, so ZZ_r^{p} = ZZ_{r-1}^{p-1} is swallowed by BB_r: trivial.
        _, width = t.block_start(n, p)
        if width == 0:
            e = FilteredEntry(r, p, n, None, None, None)
        else:
            e = self._entry_full(r, p, n)
        self._entries[key] = e
        return e

    def _entry_full(self, r: int, p: int, n: int) -> FilteredEntry:
        zz = self.zz(r, p, n)
        bb = self.bb(r, p, n)
        quot = self._quotients.get((zz, bb))
        if quot is None:
            quot = self._quotients[(zz, bb)] = subquotient(zz, bb)
        return FilteredEntry(r, p, n, zz, bb, quot)

    def delta(self, r: int, p: int, n: int):
        """Matrix rows of [x] -> [dx] in canonical quotient generators."""
        key = (r, p, n)
        cached = self._deltas.get(key)
        if cached is not None:
            return cached
        src = self.entry(r, p, n)
        tgt = self.entry(r, p - r, n - 1)
        dmat = self.t.d(n)
        cols = []
        for g in src.gens:
            dg = dmat.matvec(list(g))
            if tgt.quot is None:
                # Target cell is trivial; the class is zero, but the value
                # must still be an r-cycle there.
                if any(dg) and not self.zz(r, p - r, n - 1).contains(dg):
                    raise AssertionError("boundary escaped the target cycle module")
                cols.append(())
            else:
                cols.append(tgt.quot.reduce(dg))
        nrows = len(tgt.invariants)
        rows = tuple(tuple(col[i] for col in cols) for i in range(nrows))
        self._deltas[key] = rows
        return rows


def psi(t: TotalComplex, c: Multicomplex, r, p, n, x: FilteredVector):
    """The class of (x)_p on the witness side, for x an r-cycle on Tot."""
    return _psi(FilteredPages(t), SpectralPages(c), r, p, n, x.coords, check=True)


def _psi(fp: FilteredPages, sp: SpectralPages, r, p, n, coords, check=False):
    if check and not fp.zz(r, p, n).contains(list(coords)):
        raise MembershipError("element does not lie in the filtered cycle module")
    t = fp.t
    start, width = t.block_start(n, p)
    local = [] if start is None else list(coords[start:start + width])
    return sp.entry(r, p, n - p).quot.reduce(local)


def lift_to_total(c: Multicomplex, t: TotalComplex, r, p, q, x) -> FilteredVector:
    """x - z_{p-1} - ... - z_{p-r+1} as a filtered r-cycle on Tot.

    Uses the canonical witnesses; asserts membership in the filtered
    cycle module and that psi carries the lift back to [x].
    """
    sp = SpectralPages(c)
    fp = FilteredPages(t)
    vec = _lift(sp, fp, r, p, q, x)
    cls = _psi(fp, sp, r, p, p + q, vec.coords)
    want = sp.entry(r, p, q).quot.reduce([c.ring.normalize(v) for v in x])
    assert cls == want, "psi does not invert the lift"
    return vec


def _lift(sp: SpectralPages, fp: FilteredPages, r, p, q, x) -> FilteredVector:
    t = fp.t
    n = p + q
    ring = t.ring
    x = [ring.normalize(v) for v in x]
    vec = list(t.embed_block(n, p, x).coords)
    if r >= 2:
        wit = sp.witness(r, p, q, x)
        for j in range(1, r):
            zj = wit.z.get(j, [])
            if any(zj):
                emb = t.embed_block(n, p - j, zj).coords
                vec = vec_sub(ring, vec, emb)
    if not fp.zz(r, p, n).contains(vec):
        raise MembershipError("lift escaped the filtered cycle module")
    return FilteredVector(n, tuple(vec))


def homology(t: TotalComplex, n: int) -> HomologyGroup:
    """H_n of the total complex as invariant factors (all 0 over a field)."""
    cycles = kernel(t.d(n))
    boundaries = image(t.d(n + 1))
    quot = subquotient(cycles, boundaries)
    return HomologyGroup(n, quot.invariants)


def compare(c: Multicomplex, max_r: int | None = None) -> ComparisonReport:
    """Cross-check the two routes on every support cell for all r <= max_r.

    Per cell: (a) quotient invariants agree; (b) psi of the filtered
    generators generates the witness-side quotient; (c) the square
    psi . delta_r = Delta_r . psi commutes exactly on every generator.
    """
    sp = SpectralPages(c)
    fp = FilteredPages(totalize(c))
    return compare_engines(sp, fp, max_r)


def compare_engines(sp: SpectralPages, fp: FilteredPages,
                    max_r: int | None = None) -> ComparisonReport:
    c = sp.c
    t = fp.t
    if max_r is None:
        max_r = sp.stabilization_bound()
    report = ComparisonReport(max_r=max_r)
    cells = c.support
    for r in range(0, max_r + 1):
        for (p, q) in cells:
            n = p + q
            report.cells_checked += 1
            fe = fp.entry(r, p, n)
            se = sp.entry(r, p, q)
            if fe.invariants != se.quot.invariants:
                report.failures.append(CellFailure(
                    r, p, q, "invariants differ",
                    f"filtered {list(fe.invariants)} vs witness {list(se.quot.invariants)}"))
                continue
            if not fe.gens:
                continue
            psi_gens = [_psi(fp, sp, r, p, n, g) for g in fe.gens]
            if not se.quot.spans(psi_gens):
                report.failures.append(CellFailure(
                    r, p, q, "psi not surjective"))
                continue
            sd = sp.delta(r, p, q)
            tgt_se = sp.entry(r, p - r, q + r - 1)
            dmat = t.d(n)
            for g, v in zip(fe.gens, psi_gens):
                dg = dmat.matvec(list(g))
                try:
                    lhs = _psi(fp, sp, r, p - r, n - 1, dg)
                except MembershipError as exc:
                    report.failures.append(CellFailure(
                        r, p, q, "boundary escaped target cycles", str(exc)))
                    break
                rhs = sd.apply(v, tgt_se.quot)
                if lhs != rhs:
                    report.failures.append(CellFailure(
                        r, p, q, "square does not commute",
                        f"psi.delta gives {lhs}, Delta.psi gives {rhs}"))
                    break
    return report
