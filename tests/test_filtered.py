"""Filtered-route pages, psi, lifts, comparison, and homology."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from mcss.builders import RandomSpec, WallParams, hurtubise, random_mcx, staircase, wall
from mcss.filtered import FilteredPages, _Reduction, compare, compare_engines, homology
from mcss.linalg import (
    Mat, MembershipError, SubmodulePresentation, image, kernel, snf, subquotient,
)
from mcss.mcxio import parse
from mcss.multicomplex import Multicomplex
from mcss.pages import PageDifferential, SpectralPages
from oracles import (
    boundary_value, contains, cowitnesses, cycle_system, dense_differentials, differential, embed,
    full_transform_reduction, gauss_jordan, includes, lift_to_total, proportional, psi,
    scalar_span, spans, suffix_boundaries, torsion,
)
from test_pages import ZERO_PAGE_RINGS, _zero_page_instances, dense_z
from mcss.rings import GF, QQ, ZZ
from mcss.total import totalize


# ---------------------------------------------------------------------------
# entries on the total complex


def test_entry_r0_is_associated_graded():
    c = hurtubise(4, QQ)
    fp = FilteredPages(totalize(c))
    for (p, q), r in c.ranks.items():
        e = fp.entry(0, p, p + q)
        assert e.invariants == (0,) * r


def test_entry_hurtubise1_2_2_2():
    t = totalize(hurtubise(1, QQ))
    fp = FilteredPages(t)
    e = fp.entry(2, 2, 2)
    assert e.invariants == (0,)
    # ZZ_2^2 is spanned by D - B: coordinates (1, -1) in the basis
    # [(2,0), (1,1)], whose projection onto the (2,0) cell generates E_2
    (g,) = _reference_zz(t, 2, 2, 2).gens
    assert [int(v) for v in g] in ([1, -1], [-1, 1])
    assert e.zz == fp.zz(2, 2, 2) == scalar_span(QQ, 1, [g[:1]])
    assert spans(e.quot, [e.quot.reduce(list(g[:1]))])


def test_zz_above_support_is_full_cycle_space():
    c = hurtubise(1, QQ)
    t = totalize(c)
    fp = FilteredPages(t)
    big, r = 99, 2
    # F_p and F_{p-r} are everything either way: ZZ_r^p is all of Tot_2,
    # the reduction's cycles span its projection onto F_p's first block,
    # the (2, 0) cell, and its projection onto the absent cell is zero.
    w = t.block_start(2, 2)[1]
    assert t.filtration_start(2, big) == t.block_start(2, 2)[0] == 0
    for p in (big, big + 5):
        ref = _reference_zz(t, r, p, 2)
        assert ref == SubmodulePresentation.full(QQ, t.dim(2))
        cycles = [row[t.dim(1):] for row in fp._suffix(fp._key(r, p, 2))]
        assert SubmodulePresentation.span(QQ, w, cycles) == scalar_span(
            QQ, w, [g[:w] for g in ref.gens]) == SubmodulePresentation.full(QQ, w)
        assert fp.zz(r, p, 2) == SubmodulePresentation.zero(QQ, 0)


def test_zz_at_a_far_page_is_spanned_in_the_cell():
    # Two cells 1,200 columns apart in one degree: pi_p(ZZ_r^p) at a far
    # page is spanned in the cell, with no module built in between.
    c = Multicomplex(ZZ, {(1200, 0): 1, (0, 1200): 1}, {})
    fp = FilteredPages(totalize(c))
    assert fp.zz(1300, 1200, 1200) == SubmodulePresentation.full(ZZ, 1)
    assert fp.entry(1300, 1200, 1200).invariants == (0,)


def test_delta_r0_is_d0_blockwise():
    c = wall(WallParams(3, 2, 2, 4))
    fp = FilteredPages(totalize(c))
    for (p, q) in c.support:
        rows = fp.delta(0, p, p + q)
        m = c.dmap(0, p, q)
        if m is None:
            assert all(not v for row in rows for v in row)
        else:
            assert [list(r) for r in rows] == [list(r) for r in m.data]


def test_hurtubise4_delta2_rank():
    t = totalize(hurtubise(4, QQ))
    rows = FilteredPages(t).delta(2, 2, 2)
    assert image(Mat(QQ, len(rows), len(rows[0]), [list(r) for r in rows])).rank == 2


def test_wall_filtered_delta2_zero_interior():
    t = totalize(wall(WallParams(3, 2, 2, 6)))
    fp = FilteredPages(t)
    for p in range(0, 3):
        for q in range(0, 3):
            rows = fp.delta(2, p, p + q)
            assert all(not v for row in rows for v in row)


# ---------------------------------------------------------------------------
# psi and lifts


def test_psi_single_column_class():
    c = hurtubise(1, QQ)
    t = totalize(c)
    # A = the top-left generator, alone in degree 1 column 0; dA = 0.
    x = embed(t, 1, 0, [1])
    assert psi(t, c, 2, 0, 1, x) == (1,)


def test_psi_kills_lower_filtration():
    c = hurtubise(1, QQ)
    t = totalize(c)
    sp = SpectralPages(c)
    fp = FilteredPages(t)
    # D - B is a filtered 2-cycle in degree 2 at p = 2; B alone sits in F_1
    # and is a cycle for the pair (p=1, r=1) viewpoint; its p=2 class is 0.
    x = [QQ.normalize(v) for v in [0, 1]]  # B
    zz = _reference_zz(t, 1, 1, 2)
    assert fp.zz(1, 1, 2) == _projected(t, zz, 1, 2)
    assert contains(zz, x) is False  # dB != 0 in F_0? no:
    # dB = S_1 + S_0 spans both columns; it is not in F_0, so B is not a
    # 2-cycle at p = 1; but as an element of F_2 with (x)_2 = 0 its class
    # under psi at any page where it is a cycle must vanish.  Use r = 0.
    assert psi(t, c, 0, 2, 2, x) == (0,)


def test_psi_checks_membership():
    c = hurtubise(1, QQ)
    t = totalize(c)
    x = embed(t, 2, 2, [1])  # D alone: dD = S_1 not in F_0
    with pytest.raises(MembershipError):
        psi(t, c, 2, 2, 2, x)


def test_psi_of_shifted_cycle():
    c = hurtubise(1, QQ)
    t = totalize(c)
    x = [QQ.normalize(v) for v in [1, -1]]  # D - B
    assert psi(t, c, 2, 2, 2, x) == (1,)  # the class [D]


def test_lift_to_total():
    c = hurtubise(1, QQ)
    t = totalize(c)
    # x = 0 lifts to 0
    z = lift_to_total(c, t, 2, 2, 0, [0])
    assert not any(z)
    # r = 1: the lift is x itself
    one = lift_to_total(c, t, 1, 0, 1, [1])
    assert one == embed(t, 1, 0, [1])
    # D lifts to D - B, whose boundary is -A inside F_0
    lift = lift_to_total(c, t, 2, 2, 0, [1])
    assert [int(v) for v in lift] == [1, -1]
    dv = dense_differentials(c)[2].matvec(lift)
    assert [int(v) for v in dv] == [0, -1]  # -A, basis [(1,0), (0,1)]
    assert t.filtration_start(1, 0) == 1  # and -A indeed lies in F_0


# ---------------------------------------------------------------------------
# comparison


@pytest.mark.parametrize("make", [
    lambda: staircase(2, QQ),
    lambda: staircase(4, ZZ),
    lambda: hurtubise(3, QQ),
    lambda: hurtubise(4, ZZ),
    lambda: hurtubise(4, GF(2)),
    lambda: wall(WallParams(3, 2, 2, 4)),
])
def test_compare_builders(make):
    report = compare(make())
    assert report.ok, [str(f) for f in report.failures]


def test_compare_random_sample():
    for ring in (GF(2), GF(97), QQ, ZZ):
        for seed in range(4):
            c = random_mcx(RandomSpec(seed=seed, width=4, height=4, maxrank=2,
                                      maxd=3, ring=ring))
            report = compare(c)
            assert report.ok, (str(ring), seed, [str(f) for f in report.failures])


def _rescaled(c, seed):
    """c in a basis rescaled by rationals in each cell: fractional maps, same pages."""
    rng = random.Random(seed)
    scale = {cell: [Fraction(rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 3, 6)))
                    for _ in range(rank)] for cell, rank in sorted(c.ranks.items())}
    maps = {}
    for (i, a, b), m in c.maps.items():
        src, tgt = scale[(a, b)], scale[(a - i, b + i - 1)]
        maps[(i, a, b)] = Mat(c.ring, m.rows, m.cols, [
            [x * s / t for x, s in zip(row, src)] for row, t in zip(m.data, tgt)])
    return Multicomplex(c.ring, c.ranks, maps)


def test_compare_with_fractional_maps():
    # d_1 = [1/2]: the square must pair each cycle with its own boundary,
    # not with a multiple of it by the denominator of the total differential.
    half = Multicomplex(QQ, {(1, 0): 1, (0, 0): 1},
                        {(1, 1, 0): Mat(QQ, 1, 1, [[Fraction(1, 2)]])})
    assert compare(half).ok
    for seed in range(4):
        c = _rescaled(random_mcx(RandomSpec(seed=seed, width=4, height=4, maxrank=2,
                                            maxd=3, ring=QQ)), seed)
        assert any(x.denominator > 1 for m in c.maps.values() for row in m.data for x in row)
        report = compare(c)
        assert report.ok, (seed, [str(f) for f in report.failures])


@pytest.mark.parametrize("ring", [GF(2), GF(97), QQ], ids=str)
def test_field_reduction_suffixes_match_gauss_jordan(ring):
    # Over a field _Reduction keeps a row echelon form of [d|F_p^T | I]
    # with the transform cut to F_p's first block, of width w, not the
    # reduced one.  Every suffix it serves spans the Gauss-Jordan form's
    # suffix: its cycles cut to the block, and its boundaries.  Each row,
    # suffix and final pivot rows alike, is the row of the elimination
    # that carries a transform for every column, cut to [0, nrows + w):
    # equal over F_p, up to a scalar over Q.  In that elimination each
    # image row is d of its own cycle row over Tot's denominator.  Over Q
    # the maps are fractional, where a cycle paired with the wrong
    # multiple of its boundary shows.
    instances = [random_mcx(RandomSpec(seed=seed, width=5, height=5, maxrank=3, maxd=3,
                                       ring=ring)) for seed in range(3)]
    if ring is QQ:
        instances = [_rescaled(c, seed) for seed, c in enumerate(instances)]
        instances.append(parse((Path(__file__).parent / "golden" / "random_q_frac.mcx").read_text()))
    cut_suffixes = 0
    for c in instances:
        t = totalize(c)
        for n in t.degrees():
            nrows, starts = t.dim(n - 1), t.block_starts(n)
            for start, w in zip(starts, (b - a for a, b in zip(starts, starts[1:]))):
                cols = t.columns(n)[start:]
                width, drows = len(cols), list(zip(*cols))
                red = _Reduction(t, n, start)
                full_pivots, full_suffix, full_rows = full_transform_reduction(t, n, start)
                aug = [ring.scalars(col, t.den) + [int(i == j) for i in range(width)]
                       for j, col in enumerate(cols)]
                gj, pivots = gauss_jordan(ring, aug, nrows)
                assert red.pivots == full_pivots == pivots
                for row, full in zip(red.rows, full_rows, strict=True):
                    assert proportional(ring, row, full[:nrows + w])
                for k, rows in red.suffix.items():
                    cycles, images = [row[nrows:] for row in rows], [row[:nrows] for row in rows]
                    assert SubmodulePresentation.span(ring, w, cycles) == scalar_span(
                        ring, w, [row[nrows:nrows + w] for row in gj[k:]])
                    assert SubmodulePresentation.span(ring, nrows, images) == scalar_span(
                        ring, nrows, [row[:nrows] for row in gj[k:]])
                    for row, full in zip(rows, full_suffix[k], strict=True):
                        assert proportional(ring, row, full[:nrows + w])
                        cycle, img = full[nrows:], full[:nrows]
                        assert ring.scalars([t.den * x for x in img]) == ring.scalars(
                            ring.int_dots(drows, cycle))
                    cut_suffixes += 0 < k < len(pivots)
    assert cut_suffixes


def test_compare_detects_corruption(monkeypatch):
    # Negate one nonzero entry of one witness-route differential: the
    # comparison must flag exactly that cell.
    c = hurtubise(1, QQ)
    original = SpectralPages.delta

    def corrupted(self, r, p, q):
        d = original(self, r, p, q)
        if (r, p, q) == (2, 2, 0):
            rows = tuple(tuple(-v for v in row) for row in d.rows)
            return PageDifferential(r, p, q, d.source_invariants,
                                    d.target_invariants, rows)
        return d

    monkeypatch.setattr(SpectralPages, "delta", corrupted)
    report = compare(c)
    assert not report.ok
    assert any((f.r, f.p, f.q) == (2, 2, 0) for f in report.failures)


@pytest.mark.parametrize("ring, how", [(QQ, "drop"), (ZZ, "drop"), (ZZ, "double")])
def test_compare_detects_corrupted_boundaries(monkeypatch, ring, how):
    # Drop or double one generator of one witness-route B_r: the
    # comparison must report exactly that cell, as a module mismatch.  Page
    # 3 is the cell's settle page, so its B_3 is served, corrupted, at the
    # later page 4 too.
    c = hurtubise(4, ring)
    assert SpectralPages(c).settle(0, 1) == 3 and SpectralPages(c).stabilization_bound() == 4
    original = SpectralPages.br

    def corrupted(self, r, p, q):
        b = original(self, r, p, q)
        if (r, p, q) == (3, 0, 1):
            gens = [list(g) for g in b.gens]
            gens[-1:] = [] if how == "drop" else [[2 * v for v in gens[-1]]]
            b = scalar_span(b.ring, b.ambient_rank, gens)
        return b

    monkeypatch.setattr(SpectralPages, "br", corrupted)
    report = compare(c)
    assert [(f.r, f.p, f.q, f.kind) for f in report.failures] == [
        (3, 0, 1, "modules differ"), (4, 0, 1, "modules differ")]


@pytest.mark.parametrize("route", [SpectralPages, FilteredPages], ids=lambda e: e.__name__)
def test_compare_checks_a_cell_served_too_early(monkeypatch, route):
    # One route records cell (0,1) of hurtubise(4, Z) as having last page 1,
    # two pages before its settle page 3, and serves page 1 from then on.
    # Page 2 happens to agree; pages 3 and 4 must still be compared and
    # reported: a cell is skipped only past both routes' last pages.
    c = hurtubise(4, ZZ)
    assert SpectralPages(c).settle(0, 1) == FilteredPages(totalize(c)).settle(0, 1) == 3
    original = route.settle
    monkeypatch.setattr(route, "settle",
                        lambda self, p, b: 1 if (p, b) == (0, 1) else original(self, p, b))
    report = compare(c)
    assert report.cells_checked == 5 * len(c.support)
    assert [(f.r, f.p, f.q, f.kind) for f in report.failures] == [
        (3, 0, 1, "modules differ"), (4, 0, 1, "modules differ")]


def test_compare_counts_served_cells_without_rebuilding(monkeypatch):
    # Wall (3,2,2) at amax 16: 289 cells on 19 pages, 5,491 visits.  Each
    # route builds and stores 859 entries, and the other visits are served
    # past the cell's last page.  compare reads no filtered entry for a
    # cell past both last pages once its modules passed there: one read per
    # stored entry, where a read per visit made 5,491.
    c = wall(WallParams(3, 2, 2, 16))
    sp, fp = SpectralPages(c), FilteredPages(totalize(c))
    calls = []
    original = FilteredPages.entry

    def counting(self, r, p, n):
        calls.append((r, p, n))
        return original(self, r, p, n)

    monkeypatch.setattr(FilteredPages, "entry", counting)
    report = compare_engines(sp, fp)
    assert report.ok and report.max_r == 18 and len(c.support) == 289
    assert report.cells_checked == 5491
    assert len(sp._entries) == 859 and len(fp._entries) == 859
    assert len(calls) == 859


@pytest.mark.parametrize("make, cell", [
    (lambda: hurtubise(4, ZZ), (2, 2, 0)),
    (lambda: random_mcx(RandomSpec(seed=0, width=4, height=4, maxrank=2, maxd=3, ring=ZZ)),
     (3, 3, 1)),
])
def test_compare_detects_corrupted_delta_over_z(monkeypatch, make, cell):
    # Add 1 to the first entry of a free source column of one Delta_r over
    # Z: the square must fail at exactly that cell.
    c = make()
    original = SpectralPages.delta

    def corrupted(self, r, p, q):
        d = original(self, r, p, q)
        if (r, p, q) == cell:
            j = d.source_invariants.index(0)
            rows = [list(row) for row in d.rows]
            rows[0][j] += 1
            return PageDifferential(r, p, q, d.source_invariants, d.target_invariants,
                                    tuple(map(tuple, rows)))
        return d

    monkeypatch.setattr(SpectralPages, "delta", corrupted)
    report = compare(c)
    assert [(f.r, f.p, f.q, f.kind) for f in report.failures] == [
        (*cell, "square does not commute")]


def test_filtered_nesting_invariants():
    # In Tot_n, ZZ_{r+1} <= ZZ_r and BB_r <= ZZ_r hold literally; boundary
    # growth holds in graded-image form, BB_r <= BB_{r+1} + F_{p-1} (the
    # literal BB_r <= BB_{r+1} fails already for the short staircase at
    # (2,2)).  In the cell, where pi_p kills F_{p-1}, all three are literal.
    c = random_mcx(RandomSpec(seed=9, width=4, height=4, maxrank=2, maxd=3, ring=ZZ))
    t = totalize(c)
    fp = FilteredPages(t)
    rmax = SpectralPages(c).stabilization_bound()
    for (p, q) in c.support:
        n = p + q
        for r in range(0, rmax):
            assert includes(_reference_zz(t, r, p, n), _reference_zz(t, r + 1, p, n))
            assert includes(_reference_zz(t, r, p, n), _reference_bb(t, r, p, n))
            assert includes(fp.zz(r, p, n), fp.zz(r + 1, p, n))
            assert includes(fp.zz(r, p, n), fp.bb(r, p, n))
            assert includes(fp.bb(r + 1, p, n), fp.bb(r, p, n))
            if r >= 1:
                start = t.filtration_start(n, p - 1)
                low = []
                for i in range(start, t.dim(n)):
                    e = [ZZ.zero()] * t.dim(n)
                    e[i] = ZZ.normalize(1)
                    low.append(e)
                grown = SubmodulePresentation.span(
                    ZZ, t.dim(n),
                    [list(g) for g in _reference_bb(t, r + 1, p, n).gens] + low,
                )
                assert includes(grown, _reference_bb(t, r, p, n))


def test_bb_nesting_fails_literally_on_short_staircase():
    # The explicit counterexample pinning the graded-image form above.
    t = totalize(staircase(2, QQ))
    bb1 = _reference_bb(t, 1, 2, 2)
    bb2 = _reference_bb(t, 2, 2, 2)
    assert bb1.rank == 1 and bb2.rank == 0


def _honest_invariants(t, r, p, n):
    """Invariants of ZZ_r^p / BB_r^p, the subquotient in Tot_n, from scratch."""
    return subquotient(_reference_zz(t, r, p, n), _reference_bb(t, r, p, n)).invariants


def test_pruned_cells_match_honest_computation():
    # Cells with no basis vector in column p are skipped by a graded
    # argument; spot-check the honest subquotient agrees.
    c = hurtubise(4, ZZ)
    t = totalize(c)
    fp = FilteredPages(t)
    for (r, p, n) in [(1, 0, 2), (2, 3, 2), (2, -1, 1)]:
        assert fp.entry(r, p, n).invariants == ()
        assert _honest_invariants(t, r, p, n) == ()


@pytest.mark.parametrize("ring", [GF(2), ZZ], ids=str)
def test_pruned_cells_honest_sweep(ring):
    # Every skipped (r, p, n) in a window around the support is honestly
    # trivial, including cells off the support and past the boundary.
    c = random_mcx(RandomSpec(seed=21, width=4, height=3, maxrank=2, maxd=2, ring=ring))
    t = totalize(c)
    fp = FilteredPages(t)
    support = set(c.support)
    for n in t.degrees():
        for p in range(-1, 6):
            if (p, n - p) in support:
                continue
            for r in (0, 1, 2, 3):
                assert fp.entry(r, p, n).invariants == ()
                assert _honest_invariants(t, r, p, n) == ()


def _reference_zz(t, r, p, n):
    """ZZ_r^p from scratch: the kernel of d on F_p, rows outside F_{p-r} only."""
    start = t.filtration_start(n, p)
    cut = t.filtration_start(n - 1, p - r)
    d = differential(t, n)
    restricted = Mat(t.ring, cut, t.dim(n) - start, [row[start:] for row in d.data[:cut]])
    pad = [t.ring.zero()] * start
    return scalar_span(t.ring, t.dim(n), [pad + list(g) for g in kernel(restricted).gens])


def _projected(t, m, p, n):
    """pi_p of a Tot_n module: its generators cut to the (p, n-p) block."""
    start, width = t.filtration_start(n, p), t.block_start(n, p)[1]
    return scalar_span(t.ring, width, [g[start:start + width] for g in m.gens])


def _reference_bb(t, r, p, n):
    """BB_r^p from scratch: ZZ_{r-1}^{p-1} plus d of every ZZ_{r-1}^{p+r-1} generator."""
    if r == 0:
        return _reference_zz(t, 0, p - 1, n)
    gens = [list(g) for g in _reference_zz(t, r - 1, p - 1, n).gens]
    high = _reference_zz(t, r - 1, p + r - 1, n + 1)
    gens += [differential(t, n + 1).matvec(list(g)) for g in high.gens]
    return scalar_span(t.ring, t.dim(n), gens)


REFERENCE_INSTANCES = {
    **{f"random-{ring}-{seed}": (lambda ring=ring, seed=seed: random_mcx(RandomSpec(
        seed=seed, width=5, height=5, maxrank=3, maxd=3, ring=ring)))
       for ring in (GF(2), GF(97), QQ, ZZ) for seed in (0, 7)},
    "wall-3-2-2": lambda: wall(WallParams(3, 2, 2, 6)),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_INSTANCES))
def test_filtered_pages_match_reference(name):
    # pi_p(ZZ_r), pi_p(BB_r) and E_r for every (r, p, n) up to the bound
    # + 1, against one fresh kernel and one matvec per generator for each
    # of them.  The entry holds the projections pi_p of the oracle's
    # modules, and pi_p of the oracle's quotient generators generates it.
    c = REFERENCE_INSTANCES[name]()
    t = totalize(c)
    fp = FilteredPages(t)
    bound = SpectralPages(c).stabilization_bound()
    columns = [p for p, _ in c.support]
    for n in t.degrees():
        for p in range(min(columns) - 1, max(columns) + 2):
            for r in range(bound + 2):
                zz, bb = _reference_zz(t, r, p, n), _reference_bb(t, r, p, n)
                assert fp.zz(r, p, n) == _projected(t, zz, p, n), (r, p, n)
                assert fp.bb(r, p, n) == _projected(t, bb, p, n), (r, p, n)
                quot = subquotient(zz, bb)
                entry = fp.entry(r, p, n)
                assert entry.invariants == quot.invariants, (r, p, n)
                if entry.quot is not None:
                    start, width = t.block_start(n, p)
                    pz, pb, pq = ([list(g[start:start + width]) for g in m.gens]
                                  for m in (zz, bb, quot))
                    assert entry.zz == scalar_span(t.ring, width, pz), (r, p, n)
                    assert entry.bb == scalar_span(t.ring, width, pb), (r, p, n)
                    assert entry.zz.ambient_rank == entry.bb.ambient_rank == width, (r, p, n)
                    assert spans(entry.quot, [entry.quot.reduce(v) for v in pq]), (r, p, n)


SETTLE_INSTANCES = {
    **REFERENCE_INSTANCES,
    "wall-4-2-3": lambda: wall(WallParams(4, 2, 3, 6)),
    "hurtubise-1": lambda: hurtubise(1, QQ),
    "hurtubise-2": lambda: hurtubise(2, ZZ, length=4),
    "hurtubise-3": lambda: hurtubise(3, QQ),
    "hurtubise-4": lambda: hurtubise(4, ZZ),
}


def _settle(c, p, q):
    """s(p, q) = max(r_z, r_b) from its definition, off the support alone."""
    n = p + q
    left = [a for a, b in c.support if a + b == n - 1 and a < p]
    right = [a for a, b in c.support if a + b == n + 1 and a > p]
    return max(1 + p - min(left, default=p), 1 + max(right, default=p) - p)


@pytest.mark.parametrize("name", sorted(SETTLE_INSTANCES))
def test_modules_are_constant_past_the_settle_page(name):
    # For every cell and r in (s, bound + 1], asked of fresh engines: Z_r
    # and B_r equal their values at s, and so do the cycle and boundary
    # systems built at r itself; pi_p(ZZ_r^p) and pi_p(BB_r^p) equal theirs.
    c = SETTLE_INSTANCES[name]()
    ring, t = c.ring, totalize(c)
    bound = SpectralPages(c).stabilization_bound()
    for (p, q) in c.support:
        n, s, nx = p + q, _settle(c, p, q), c.rank(p, q)
        assert SpectralPages(c).settle(p, q) == FilteredPages(t).settle(p, n) == s, (p, q)
        sp, fp = SpectralPages(c), FilteredPages(t)
        want = (sp.zr(s, p, q), sp.br(s, p, q), fp.zz(s, p, n), fp.bb(s, p, n))
        for r in range(s + 1, bound + 2):
            sp, fp = SpectralPages(c), FilteredPages(t)
            assert (sp.zr(r, p, q), sp.br(r, p, q)) == want[:2], (r, p, q)
            assert (fp.zz(r, p, n), fp.bb(r, p, n)) == want[2:], (r, p, q)
            ker = kernel(cycle_system(sp, r, p, q)[0])
            zr = scalar_span(ring, nx, [g[:nx] for g in ker.gens])
            values = [boundary_value(c, r, p, q, cow) for cow in cowitnesses(sp, r, p, q)]
            assert (zr, scalar_span(ring, nx, values)) == want[:2], (r, p, q)


@pytest.mark.parametrize("name", sorted(SETTLE_INSTANCES))
def test_pages_past_the_bound_ask_for_no_module(name, monkeypatch):
    # After pages 0..bound every cell is past its settle page: pages up to
    # 3 * bound serve the bound page's modules, with no zr, br, zz or bb
    # call, and no page has a differential.
    c = SETTLE_INSTANCES[name]()
    sp, fp = SpectralPages(c), FilteredPages(totalize(c))
    bound = sp.stabilization_bound()
    for r in range(bound + 1):
        sp.page(r)
        for (p, q) in c.support:
            fp.entry(r, p, p + q)
    calls = []

    def counting(cls, method):
        original = getattr(cls, method)

        def wrapper(self, *args):
            calls.append((method, args))
            return original(self, *args)

        monkeypatch.setattr(cls, method, wrapper)

    for cls, method in ((SpectralPages, "zr"), (SpectralPages, "br"),
                        (FilteredPages, "zz"), (FilteredPages, "bb")):
        counting(cls, method)
    for r in range(bound + 1, 3 * bound + 1):
        page = sp.page(r)
        assert page.deltas == {}, r
        for (p, q) in c.support:
            se, ss = page.entries[(p, q)], sp.entry(bound, p, q)
            fe, fs = fp.entry(r, p, p + q), fp.entry(bound, p, p + q)
            assert se.zr is ss.zr and se.br is ss.br and se.quot is ss.quot, (r, p, q)
            assert fe.zz is fs.zz and fe.bb is fs.bb, (r, p, q)
    assert calls == []


@pytest.mark.parametrize("ring", ZERO_PAGE_RINGS, ids=str)
def test_filtered_zero_pages_do_not_depend_on_request_order(ring):
    # Once zz == bb an entry's later pages are served from that page; a
    # fresh engine asked in shuffled cell order, from the far page down,
    # computes them and must find the same modules.
    for seed, c in enumerate(_zero_page_instances(ring)):
        t = totalize(c)
        swept, cold = FilteredPages(t), FilteredPages(t)
        pages = range(SpectralPages(c).stabilization_bound() + 2)
        for r in pages:
            for (p, q) in c.support:
                swept.entry(r, p, p + q)
        cells = sorted(c.support)
        random.Random(seed).shuffle(cells)
        for (p, q) in cells:
            for r in reversed(pages):
                e, want = cold.entry(r, p, p + q), swept.entry(r, p, p + q)
                assert (e.zz, e.bb, e.invariants) == (want.zz, want.bb, want.invariants), (r, p, q)
                assert (cold.zz(r, p, p + q), cold.bb(r, p, p + q)) == (want.zz, want.bb), (r, p, q)


@pytest.mark.parametrize("ring", ZERO_PAGE_RINGS, ids=str)
def test_pages_past_the_last_page_are_lookups(ring):
    # Past a cell's last page both engines return that page's entry object
    # and build or store nothing for the later page.  A cold query of the
    # far page stores only the settle page it is served from.
    served = 0
    for c in _zero_page_instances(ring)[:5]:
        t = totalize(c)
        sp, fp = SpectralPages(c), FilteredPages(t)
        pages = range(sp.stabilization_bound() + 2)
        for r in pages:
            sp.page(r)
            for (p, q) in c.support:
                fp.entry(r, p, p + q)
        for engine, cold, cells in ((sp, SpectralPages(c), c.support),
                                    (fp, FilteredPages(t), [(p, p + q) for p, q in c.support])):
            for cell in cells:
                cold.entry(pages[-1], *cell)
            assert sorted(cold._entries) == sorted((cold.settle(*cell), *cell) for cell in cells)
            stored = dict(engine._entries)
            for cell in cells:
                last = engine._last[cell]
                assert not any((r, *cell) in stored for r in pages if r > last), cell
                for r in range(last + 1, len(pages)):
                    assert engine.entry(r, *cell) is stored[(last, *cell)], (r, cell)
                    served += 1
            assert engine._entries == stored
    assert served > 200


FRACTIONAL_INSTANCES = {
    f"rescaled-Q-{seed}": (lambda seed=seed: _rescaled(random_mcx(RandomSpec(
        seed=seed, width=4, height=4, maxrank=2, maxd=3, ring=QQ)), seed))
    for seed in range(4)
}


@pytest.mark.parametrize("name", sorted({**REFERENCE_INSTANCES, **FRACTIONAL_INSTANCES}))
def test_filtered_delta_matches_witness_delta(name):
    # [x] -> [dx] on the filtered side, lifted by a solve against the cut
    # cycles, is the witness route's Delta_r on every cell and page.
    c = {**REFERENCE_INSTANCES, **FRACTIONAL_INSTANCES}[name]()
    sp, fp = SpectralPages(c), FilteredPages(totalize(c))
    for r in range(sp.stabilization_bound() + 1):
        for (p, q) in c.support:
            assert fp.delta(r, p, p + q) == sp.delta(r, p, q).rows, (r, p, q)


BOUNDARY_INSTANCES = {
    **{f"random-{ring}-{seed}": (lambda ring=ring, seed=seed: random_mcx(RandomSpec(
        seed=seed, width=6, height=6, maxrank=3, maxd=4, ring=ring)))
       for ring in (GF(2), GF(97), ZZ) for seed in (0, 3)},
    **{f"rescaled-Q-{seed}": (lambda seed=seed: _rescaled(random_mcx(RandomSpec(
        seed=seed, width=6, height=6, maxrank=3, maxd=4, ring=QQ)), seed))
       for seed in (0, 3)},
    "random_q_frac": lambda: parse((Path(__file__).parent / "golden" / "random_q_frac.mcx")
                                   .read_text()),
    "dense_z_s2": lambda: parse((Path(__file__).parent / "data" / "dense_z_s2.mcx").read_text()),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_INSTANCES))
def test_bb_off_pivot_rows_equals_span_of_the_suffix(name):
    # bb reads pi_p(BB_r^p) off the final pivot rows of the reduction of
    # d_{n+1} on F_{p+r-1} with pivots in the block; it is the span of
    # that reduction's suffix at the cut of F_{p-1}, cut to the block,
    # for every (r, p, n) up to past the settle page.  Some cut must fall
    # strictly inside the pivots, where rows on both sides are dropped.
    t = totalize(BOUNDARY_INSTANCES[name]())
    fp = FilteredPages(t)
    inner = 0
    for n in t.degrees():
        for p, _, _ in t.blocks(n):
            for r in range(fp.settle(p, n) + 2):
                assert fp.bb(r, p, n) == suffix_boundaries(fp, r, p, n), (r, p, n)
                if r:
                    m, start, k = fp._key(r - 1, p + r - 1, n + 1)
                    inner += 0 < k < len(fp._reductions[(m, start)].pivots)
    assert inner


@pytest.mark.parametrize("name", sorted(REFERENCE_INSTANCES))
def test_filtered_modules_live_in_one_cell(name):
    # Every module the filtered engine holds after a comparison is a
    # module of the (p, n-p) cell, never of Tot_n.
    c = REFERENCE_INSTANCES[name]()
    t = totalize(c)
    fp = FilteredPages(t)
    assert compare_engines(SpectralPages(c), fp).ok
    assert fp._zz and fp._entries
    for (r, p, n), zz in fp._zz.items():
        assert zz.ambient_rank == t.block_start(n, p)[1], (r, p, n)
    for (r, p, n), e in fp._entries.items():
        if e.zz is not None:
            assert e.zz.ambient_rank == e.bb.ambient_rank == t.block_start(n, p)[1], (r, p, n)


def test_compare_calls_no_kernel_from_filtered(monkeypatch):
    # The filtered side of a comparison, every entry and delta it reads,
    # calls no kernel through any binding of it in the package.
    import mcss.linalg
    import mcss.pages

    calls = []
    original = mcss.linalg.kernel

    def counting(m):
        calls.append((m.rows, m.cols))
        return original(m)

    for module in (mcss.linalg, mcss.pages):
        monkeypatch.setattr(module, "kernel", counting)
    engines = []
    for ring in (GF(2), ZZ):
        c = random_mcx(RandomSpec(seed=4, width=4, height=4, maxrank=2, maxd=3, ring=ring))
        sp, fp = SpectralPages(c), FilteredPages(totalize(c))
        for r in range(sp.stabilization_bound() + 1):
            for (p, q) in c.support:
                fp.delta(r, p, p + q)
        engines.append((sp, fp))
    assert calls == []
    assert all(compare_engines(sp, fp).ok for sp, fp in engines)


def test_compare_builds_no_total_complex_subquotient(monkeypatch):
    # Every subquotient that compare builds lives in one cell.
    import mcss.filtered
    import mcss.pages

    ambients = []
    original = mcss.pages.subquotient

    def spy(z, b):
        ambients.append(z.ambient_rank)
        return original(z, b)

    monkeypatch.setattr(mcss.pages, "subquotient", spy)
    monkeypatch.setattr(mcss.filtered, "subquotient", spy)
    for name in sorted(REFERENCE_INSTANCES):
        c = REFERENCE_INSTANCES[name]()
        del ambients[:]
        assert compare(c).ok, name
        assert ambients and max(ambients) <= max(c.ranks.values()), name


def test_filtered_delta_squares_to_zero():
    for c in [hurtubise(4, QQ), wall(WallParams(3, 2, 2, 4)),
              random_mcx(RandomSpec(seed=3, width=4, height=4, maxrank=2,
                                    maxd=3, ring=ZZ))]:
        t = totalize(c)
        fp = FilteredPages(t)
        rmax = SpectralPages(c).stabilization_bound()
        for (p, q) in c.support:
            n = p + q
            for r in range(0, rmax + 1):
                d1 = fp.delta(r, p, n)
                d2 = fp.delta(r, p - r, n - 1)
                tgt2 = fp.entry(r, p - 2 * r, n - 2)
                for j in range(len(d1[0]) if d1 else 0):
                    once = [row[j] for row in d1]
                    twice = [sum(a * b for a, b in zip(row, once)) for row in d2]
                    if tgt2.quot is not None:
                        twice = tgt2.quot.canon(twice)
                    assert not any(twice)


# ---------------------------------------------------------------------------
# homology


def test_homology_staircase_vanishes():
    t = totalize(staircase(2, QQ))
    assert all(h.invariants == () for h in homology(t).values())


def test_homology_hurtubise3():
    h = homology(totalize(hurtubise(3, QQ)))
    assert h[1].invariants == (0,)
    assert h[2].invariants == (0,)


def test_homology_metacyclic_332():
    # G = Z/3 : Z/2 with twist 2 (the symmetric group on three letters).
    h = homology(totalize(wall(WallParams(3, 2, 2, 8))))
    assert h[0].invariants == (0,)
    assert h[1].invariants == (2,)
    assert h[2].invariants == ()
    assert h[3].invariants == (6,)
    assert h[4].invariants == ()


def test_homology_h1_matches_abelianizations():
    # H_1 is the abelianization, computable by hand from the presentations:
    # (4,2,3) is the order-8 dihedral group, (5,4,2) the order-20 Frobenius
    # group.
    assert homology(totalize(wall(WallParams(4, 2, 3, 8))))[1].invariants == (2, 2)
    assert homology(totalize(wall(WallParams(5, 4, 2, 8))))[1].invariants == (4,)


def test_homology_invariant_under_block_conjugation():
    from mcss.builders import _random_unimodular
    import random as _random

    c = random_mcx(RandomSpec(seed=13, width=4, height=4, maxrank=2, maxd=2, ring=ZZ))
    rng = _random.Random(99)
    blocks = {cell: _random_unimodular(rng, ZZ, k) for cell, k in sorted(c.ranks.items())}
    for u, inv in blocks.values():  # each block comes with its inverse
        one = Mat(ZZ, u.rows, u.rows, [[int(i == j) for j in range(u.rows)] for i in range(u.rows)])
        assert u.mul(inv) == inv.mul(u) == one
    maps = {}
    for (i, a, b), m in c.maps.items():
        left = blocks[(a - i, b + i - 1)][0]
        right = blocks[(a, b)][1]
        maps[(i, a, b)] = left.mul(m).mul(right)
    c2 = Multicomplex(ZZ, dict(c.ranks), maps)
    assert c2.validate() == []
    assert homology(totalize(c)) == homology(totalize(c2))


def _homology_oracle(t, n):
    """H_n as the kernel / image / subquotient route computes it."""
    return subquotient(kernel(differential(t, n)), image(differential(t, n + 1))).invariants


HOMOLOGY_FAMILIES = {
    **{str(ring): [lambda seed=seed, ring=ring: random_mcx(RandomSpec(
        seed=seed, width=5, height=5, maxrank=3, maxd=3, ring=ring)) for seed in range(40)]
       for ring in (ZZ, QQ, GF(2), GF(3))},
    # Conjugated direct sums of three Z windows: cells of rank up to 9, with torsion.
    "dense-Z": [lambda seed=seed: dense_z(seed) for seed in range(12)],
}


@pytest.mark.parametrize("family", sorted(HOMOLOGY_FAMILIES))
def test_homology_matches_kernel_image_subquotient(family):
    # One image per boundary map, ranks and the Smith form of the non-unit
    # Hermite columns, against the subquotient of kernel by image.
    found = 0
    for build in HOMOLOGY_FAMILIES[family]:
        t = totalize(build())
        groups = homology(t)
        assert sorted(groups) == [n for n in t.degrees() if t.dim(n)]
        for n, h in groups.items():
            assert h.invariants == _homology_oracle(t, n), n
            found += bool(torsion(h))
    if family in ("Z", "dense-Z"):
        assert found


def test_homology_torsion_matches_sympy_smith_form():
    # A third oracle: the elementary divisors of d_{n+1} by sympy.
    from sympy import Matrix, ZZ as SZZ
    from sympy.matrices.normalforms import smith_normal_form

    found = 0
    for c in (dense_z(0), dense_z(1), wall(WallParams(3, 2, 2, 8))):
        t = totalize(c)
        dense = dense_differentials(c)
        for n, h in homology(t).items():
            d = dense.get(n + 1)
            divisors = []
            if d is not None:
                snf_d = smith_normal_form(Matrix(d.data), domain=SZZ)
                divisors = [abs(int(snf_d[i, i])) for i in range(min(d.rows, d.cols))]
            assert torsion(h) == tuple(sorted(x for x in divisors if x > 1)), n
            found += len(torsion(h))
    assert found


HOMOLOGY_SNF_INSTANCES = {
    **{path.stem: path for path in sorted((Path(__file__).parent / "golden").glob("*.mcx"))},
    "dense_z_s2": Path(__file__).parent / "data" / "dense_z_s2.mcx",
}


def _torsion_off_snf(t, n):
    """H_n's torsion as the diagonal of `snf(...)[1]` on the non-unit
    Hermite columns of im d_{n+1}, on the rows where they are nonzero."""
    b = SubmodulePresentation.span(t.ring, t.dim(n), t.columns(n + 1))
    cols = [g for g, r in zip(b.rows, b.pivots) if g[r] != 1]
    if t.ring.is_field or not cols:
        return ()
    rows = [i for i in range(b.ambient_rank) if any(g[i] for g in cols)]
    d = snf(Mat.from_ints(t.ring, len(rows), len(cols), [[g[i] for g in cols] for i in rows]))[1]
    return tuple(x for x in (d.ints[k][k] for k in range(len(cols))) if x > 1)


def test_homology_torsion_is_the_diagonal_of_snf():
    # homology runs the Smith loop on its grid with no transform; its
    # torsion is the diagonal `snf` returns on the same grid.
    found = 0
    for name, path in HOMOLOGY_SNF_INSTANCES.items():
        t = totalize(parse(path.read_text()))
        for n, h in homology(t).items():
            assert torsion(h) == _torsion_off_snf(t, n), (name, n)
            found += len(torsion(h))
    assert found


def test_homology_carries_no_rows_through_its_smith_pass(monkeypatch):
    # homology reads only D: its Smith pass gets rows exactly nc wide, so
    # carries no U tails, carries no lifts, and it makes no call through
    # `snf`.
    import mcss.filtered as filtered
    import mcss.linalg as linalg

    carried, snf_calls = [], []
    real_smith, real_snf = filtered._smith, linalg.snf

    def smith(a, nc, lifts=None):
        carried.append((all(len(row) == nc for row in a), lifts))
        return real_smith(a, nc, lifts)

    monkeypatch.setattr(filtered, "_smith", smith)
    monkeypatch.setattr(linalg, "snf", lambda *a: snf_calls.append(1) or real_snf(*a))
    homology(totalize(parse(HOMOLOGY_SNF_INSTANCES["dense_z_s2"].read_text())))
    assert carried and set(carried) == {(True, None)} and not snf_calls
