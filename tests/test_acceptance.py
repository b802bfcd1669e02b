"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Everything here is exact (tolerance zero).
"""

import random
from math import prod

import pytest

from mcss.builders import RandomSpec, WallParams, hurtubise, random_mcx, staircase, wall
from mcss.filtered import FilteredPages, compare_engines, homology
from mcss.linalg import Mat, image, kernel, subquotient
from mcss.multicomplex import Multicomplex
from mcss.pages import SpectralPages
from mcss.rings import GF, QQ, ZZ
from mcss.total import totalize
from oracles import (cowitnesses, delta_with_witness, free_rank, includes, prop25_witness,
                     scalar_span, torsion)


def announce(num, text):
    print(f"acceptance criterion {num}: PASS - {text}")


def matrix_rank(ring, rows):
    if not rows or not rows[0]:
        return 0
    work = QQ if ring.kind == "Z" else ring
    return image(Mat(work, len(rows), len(rows[0]), [list(r) for r in rows])).rank


# ---------------------------------------------------------------------------
# structural property helpers (criterion 8)


def turnover_invariants(sp, r, p, q):
    """Invariants of H(E_r, Delta_r) at (p, q), computed in coordinates."""
    ring = sp.c.ring
    e = sp.entry(r, p, q)
    k = len(e.invariants)
    if k == 0:
        return ()
    out = sp.delta(r, p, q)
    inc = sp.delta(r, p + r, q - r + 1)
    tgt = sp.entry(r, p - r, q + r - 1)
    inc_cols = [[row[j] for row in inc.rows] for j in range(len(inc.source_invariants))]
    if ring.is_field:
        ker = kernel(Mat(ring, len(tgt.invariants), k, [list(r_) for r_ in out.rows]))
        bnd = [c for c in inc_cols]
    else:
        rel_t = []
        for i, d in enumerate(tgt.invariants):
            if d:
                col = [0] * len(tgt.invariants)
                col[i] = d
                rel_t.append(col)
        grid = [list(orow) + [rc[i] for rc in rel_t] for i, orow in enumerate(out.rows)]
        full = kernel(Mat(ZZ, len(tgt.invariants), k + len(rel_t), grid))
        from mcss.linalg import SubmodulePresentation
        ker = SubmodulePresentation.span(ZZ, k, [list(g[:k]) for g in full.gens])
        bnd = [c for c in inc_cols]
        for i, d in enumerate(e.invariants):
            if d:
                col = [0] * k
                col[i] = d
                bnd.append(col)
    bpres = scalar_span(ring, k, bnd)
    return subquotient(ker, bpres).invariants


def deltas_zero(page):
    """Every Delta_r that page r builds is the zero map."""
    return all(d.is_zero() for d in page.deltas.values())


def structural_issue(sp, rmax):
    """First violated structural property, or None.  Shares the engine cache."""
    c = sp.c
    for (p, q) in c.support:
        for r in range(1, rmax + 1):
            if not includes(sp.zr(r, p, q), sp.br(r, p, q)):
                return f"B_{r} not inside Z_{r} at ({p},{q})"
        for r in range(1, rmax):
            if not includes(sp.zr(r, p, q), sp.zr(r + 1, p, q)):
                return f"cycle nesting fails at r={r} ({p},{q})"
            if not includes(sp.br(r + 1, p, q), sp.br(r, p, q)):
                return f"boundary nesting fails at r={r} ({p},{q})"
        for r in (2, 3):
            if r > rmax:
                continue
            for cow in cowitnesses(sp, r, p, q):
                prop25_witness(c, r, p, q, cow)  # raises/asserts on failure
        for r in range(0, rmax + 1):
            d1 = sp.delta(r, p, q)
            d2 = sp.delta(r, p - r, q + r - 1)
            tgt2 = sp.entry(r, p - 2 * r, q + 2 * r - 2)
            for j in range(len(d1.source_invariants)):
                once = [row[j] for row in d1.rows]
                if any(d2.apply(once, tgt2.quot)):
                    return f"Delta_{r} . Delta_{r} != 0 at ({p},{q})"
        for r in range(0, rmax):
            if turnover_invariants(sp, r, p, q) != sp.entry(r + 1, p, q).invariants:
                return f"H(E_{r}) != E_{r + 1} at ({p},{q})"
        for r in range(2, rmax + 1):
            e = sp.entry(r, p, q)
            for g in e.quot.gens:
                one = delta_with_witness(sp, r, p, q, list(g))
                two = delta_with_witness(sp, r, p, q, list(g), scramble=4242)
                if one != two:
                    return f"Delta_{r} depends on the witness at ({p},{q})"
    return None


def bicomplex_issue(sp):
    """E_1 vs d_0-homology and Delta_1 vs induced d_1, from first principles."""
    from mcss.linalg import SubmodulePresentation

    c = sp.c
    ring = c.ring
    for (p, q) in c.support:
        m_out = c.dmap(0, p, q)
        m_in = c.dmap(0, p, q + 1)
        zr = kernel(m_out) if m_out is not None else SubmodulePresentation.full(ring, c.rank(p, q))
        br = image(m_in) if m_in is not None else SubmodulePresentation.zero(ring, c.rank(p, q))
        quot = subquotient(zr, br)
        e = sp.entry(1, p, q)
        if quot.invariants != e.quot.invariants:
            return f"E_1 != d_0-homology at ({p},{q})"
        d = sp.delta(1, p, q)
        e_tgt = sp.entry(1, p - 1, q)
        m1 = c.dmap(1, p, q)
        for j, g in enumerate(e.quot.gens):
            v = m1.matvec(list(g)) if m1 is not None else [ring.zero()] * c.rank(p - 1, q)
            if e_tgt.quot.reduce(v) != tuple(row[j] for row in d.rows):
                return f"Delta_1 != induced d_1 at ({p},{q})"
    return None


def process_instance(c, *, check_bicomplex=False):
    """compare + structural checks on one instance; returns list of issues."""
    sp = SpectralPages(c)
    fp = FilteredPages(totalize(c))
    issues = []
    report = compare_engines(sp, fp)
    if not report.ok:
        issues.append(f"compare: {report.failures[0]}")
    msg = structural_issue(sp, report.max_r)
    if msg:
        issues.append(msg)
    if check_bicomplex:
        msg = bicomplex_issue(sp)
        if msg:
            issues.append(msg)
    return issues


def spec_for(seed, ring):
    """Deterministic instance sizes within the criterion bounds (<=6x6, <=4, <=4)."""
    rng = random.Random(f"{seed}|{ring}")
    return RandomSpec(
        seed=seed,
        width=rng.choices([2, 3, 4, 5, 6], weights=[25, 30, 20, 15, 10])[0],
        height=rng.choices([2, 3, 4, 5, 6], weights=[25, 30, 20, 15, 10])[0],
        maxrank=rng.choice([1, 2, 2, 3, 4]),
        maxd=rng.choice([0, 1, 2, 2, 3, 4]),
        ring=ring,
    )


@pytest.fixture(scope="module")
def sweep():
    """Criteria 7/8/9 share one pass over the random instances."""
    results = {"compare_structural": [], "bicomplex": []}
    lanes = [(GF(2), 200), (GF(97), 200), (QQ, 200), (ZZ, 50)]
    for ring, count in lanes:
        for seed in range(count):
            c = random_mcx(spec_for(seed, ring))
            issues = process_instance(c)
            if issues:
                results["compare_structural"].append((str(ring), seed, issues))
    for seed in range(50):
        rng = random.Random(f"bicx|{seed}")
        spec = RandomSpec(
            seed=seed,
            width=rng.choice([3, 4, 5, 6]),
            height=rng.choice([3, 4, 5, 6]),
            maxrank=rng.choice([1, 2, 3]),
            maxd=1,
            ring=rng.choice([QQ, GF(2), GF(97), ZZ]),
        )
        c = random_mcx(spec)
        assert c.maxd <= 1
        issues = process_instance(c, check_bicomplex=True)
        if issues:
            results["bicomplex"].append((seed, issues))
    return results


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_short_staircase():
    c = hurtubise(1, QQ)
    sp = SpectralPages(c)
    bound = sp.stabilization_bound()
    pages = list(sp.pages(bound + 1))
    e1 = pages[1].invariants_table()
    assert sum(len(v) for v in e1.values()) == 2
    d2 = sp.delta(2, 2, 0)
    assert matrix_rank(QQ, d2.rows) == 1
    assert pages[3].invariants_table() == {}
    einf, beyond = pages[bound], pages[bound + 1]
    assert einf.invariants_table() == beyond.invariants_table() == {}
    assert einf.deltas == beyond.deltas == {}
    announce(1, "E_1 total dim 2, Delta_2 rank 1, E_3 = Einf = 0")


@pytest.mark.parametrize("length", [3, 4, 5])
def test_criterion_2_long_staircases(length):
    c = staircase(length, ZZ)
    sp = SpectralPages(c)
    pages = list(sp.pages(length + 1))
    surviving = pages[1].invariants_table()
    assert set(surviving) == {(0, length - 1), (length, 0)}
    for page in pages[1:length]:
        assert deltas_zero(page)
        assert page.invariants_table() == surviving
    dr = sp.delta(length, length, 0)
    assert matrix_rank(ZZ, dr.rows) == 1
    assert pages[length + 1].invariants_table() == {}
    announce(2, f"staircase({length}): Delta_j = 0 for j < {length}, "
                f"Delta_{length} rank 1, E_{length + 1} = 0")


def staircase_with_survivors(length):
    """staircase(length) with a map-free second generator in each cell
    (length - j, j - 1), 1 <= j < length: the targets of Delta_j out of
    (length, 0) no longer die on page 1."""
    c = staircase(length, ZZ)
    ranks = {**c.ranks, **{(length - j, j - 1): 2 for j in range(1, length)}}
    maps = {(i, a, b): Mat(ZZ, ranks[(a - i, b + i - 1)], m.cols,
                           m.data + [[0] * m.cols] * (ranks[(a - i, b + i - 1)] - m.rows))
            for (i, a, b), m in c.maps.items()}
    return Multicomplex(ZZ, ranks, maps)


@pytest.mark.parametrize("length", [3, 4, 5])
def test_criterion_2_delta_zero_into_surviving_targets(length):
    # In staircase(length) the targets of Delta_j, j < length, are zero
    # entries, so "Delta_j = 0" holds for want of target rows.  Here each
    # target keeps a generator, and Delta_j must be the zero 1x1 matrix.
    c = staircase_with_survivors(length)
    assert c.validate() == []
    sp = SpectralPages(c)
    for page in list(sp.pages(length - 1))[1:]:
        j = page.r
        d = page.deltas[(length, 0)]
        assert d.target == (length - j, j - 1)
        assert d.source_invariants == d.target_invariants == (0,)
        assert d.rows == ((0,),)
        assert deltas_zero(page)
    assert matrix_rank(ZZ, sp.delta(length, length, 0).rows) == 1
    announce(2, f"staircase({length}) with surviving targets: Delta_j = 0 as 1x1 "
                f"matrices for j < {length}")


def test_criterion_3_added_d2_kills_delta2():
    c = hurtubise(3, QQ)
    sp = SpectralPages(c)
    bound = sp.stabilization_bound()
    pages = list(sp.pages(bound + 1))
    p2 = pages[2]
    assert deltas_zero(p2)
    einf, beyond = pages[bound], pages[bound + 1]
    assert einf.invariants_table() == beyond.invariants_table()
    assert einf.deltas == beyond.deltas == {}
    assert einf.invariants_table() == p2.invariants_table()
    assert sum(len(v) for v in einf.invariants_table().values()) == 2
    announce(3, "Delta_2 = 0 everywhere, E_2 = Einf with total dim 2")


@pytest.mark.parametrize("ring", [QQ, ZZ], ids=str)
def test_criterion_4_delta_differs_from_induced_map(ring):
    c = hurtubise(4, ring)
    sp = SpectralPages(c)
    d2 = sp.delta(2, 2, 0)
    rows = [[int(v) for v in row] for row in d2.rows]
    col_x = [row[0] for row in rows]
    col_y = [row[1] for row in rows]
    assert col_x == [-1, 0] and any(col_x)          # Delta_2[x] = [-d_1 z] != 0
    assert col_y == [0, 1] and any(col_y)           # Delta_2[y] = [d_2 y] != 0
    assert matrix_rank(ring, d2.rows) == 2          # linearly independent classes
    induced = [[int(v) for v in row] for row in c.dmap(2, 2, 0).data]
    assert rows != induced
    announce(4, f"over {ring!r}: Delta_2 = [[-1,0],[0,1]] differs from d_2 = [[0,0],[0,1]]")


WALL_PARAMS = [(3, 2, 2), (4, 2, 3), (5, 4, 2)]


@pytest.mark.parametrize("rk,s,t", WALL_PARAMS)
def test_criterion_5_wall_degenerates_at_e2(rk, s, t):
    c = wall(WallParams(rk, s, t, 8))
    sp = SpectralPages(c)
    interior2 = 8 - 2 * 2
    for p in range(0, interior2 + 1):
        for q in range(0, interior2 + 1):
            assert sp.delta(2, p, q).is_zero()
    for s_idx in (3, 4):
        bound = 8 - 2 * s_idx
        for p in range(0, bound + 1):
            for q in range(0, bound + 1):
                assert sp.entry(s_idx, p, q).invariants == sp.entry(2, p, q).invariants
    announce(5, f"wall({rk},{s},{t}): Delta_2 = 0 and E_2 = Einf on the window interior")


@pytest.mark.parametrize("rk,s,t", WALL_PARAMS)
def test_criterion_6_wall_homology_matches_einf_assembly(rk, s, t):
    c = wall(WallParams(rk, s, t, 8))
    t_cx = totalize(c)
    sp = SpectralPages(c)
    rmax = sp.stabilization_bound()
    groups = homology(t_cx)
    assert groups[0].invariants == (0,)
    for n in range(0, 5):
        h = groups[n]
        cells = [(p, n - p) for p in range(0, n + 1)]
        free = 0
        torsion_order = 1
        for (p, q) in cells:
            inv = sp.entry(rmax, p, q).invariants
            free += sum(1 for d in inv if d == 0)
            torsion_order *= prod(d for d in inv if d) if any(inv) else 1
        assert free == free_rank(h), (n, free, h.invariants)
        assert torsion_order == prod(torsion(h)) if torsion(h) else torsion_order == 1
    announce(6, f"wall({rk},{s},{t}): H_n matches the Einf assembly for n <= 4, H_0 = Z")


def test_criterion_7_oracle_equivalence(sweep):
    bad = sweep["compare_structural"]
    compare_bad = [b for b in bad if any("compare" in i for i in b[2])]
    assert not compare_bad, compare_bad[:3]
    announce(7, "650 random instances over F2/F97/Q (200 each) and Z (50): "
                "zero failing cells")


def test_criterion_8_structural_properties(sweep):
    bad = sweep["compare_structural"]
    structural_bad = [b for b in bad if any("compare" not in i for i in b[2])]
    assert not structural_bad, structural_bad[:3]
    # The same checks hold on the worked examples.
    for c in [hurtubise(1, QQ), hurtubise(3, ZZ), hurtubise(4, ZZ),
              staircase(4, GF(2)), wall(WallParams(3, 2, 2, 6))]:
        assert process_instance(c) == []
    announce(8, "inclusions, nesting, explicit-witness formula, Delta^2 = 0, "
                "page turnover, witness independence")


def test_criterion_9_bicomplex_specialization(sweep):
    assert not sweep["bicomplex"], sweep["bicomplex"][:3]
    announce(9, "50 random bicomplexes: E_1 = d_0-homology and Delta_1 = induced d_1")
