"""Witness-route pages: cycles, boundaries, witnesses, differentials."""

import random

import pytest

from mcss.builders import RandomSpec, WallParams, hurtubise, random_mcx, staircase, wall
from mcss.filtered import FilteredPages, compare, compare_engines
from mcss.linalg import (
    Mat,
    MembershipError,
    SubmodulePresentation,
    image,
    kernel,
    solve,
    subquotient,
)
from mcss.multicomplex import Multicomplex, RelationError
from mcss.pages import SpectralPages
from mcss.rings import GF, QQ, ZZ
from mcss.total import totalize
from test_multicomplex import broken_c2, broken_twice
from oracles import (
    CoWitnessTuple,
    WitnessTuple,
    boundary_value,
    chain_step,
    contains,
    cowitnesses,
    cycle_system,
    delta_value,
    delta_with_witness,
    includes,
    per_cell_page,
    prop25_witness,
    scalar_span,
    star1_holds,
    star2_holds,
    to_cols,
    witness_tuple,
)

RINGS = (GF(2), GF(97), QQ, ZZ)


# ---------------------------------------------------------------------------
# cycles


def test_z1_is_d0_kernel():
    c = hurtubise(4, QQ)
    sp = SpectralPages(c)
    for (p, q) in c.support:
        m = c.dmap(0, p, q)
        if m is None:
            assert sp.zr(1, p, q).rank == c.rank(p, q)
        else:
            assert sp.zr(1, p, q) == kernel(m)


def test_hurtubise4_z2_is_everything():
    # Both x and y are 2-cycles: witnessed by z and by 0.
    for ring in (QQ, ZZ):
        c = hurtubise(4, ring)
        z2 = SpectralPages(c).zr(2, 2, 0)
        assert z2.rank == 2


def test_wall_z2_vanishes_on_even_rows():
    sp = SpectralPages(wall(WallParams(3, 2, 2, 6)))
    for a in range(0, 7):
        assert sp.zr(2, a, 2).rank == 0  # d_0 is multiplication by 3


def test_wall_z2_vanishes_on_positive_even_columns_of_row_zero():
    sp = SpectralPages(wall(WallParams(3, 2, 2, 6)))
    for a in (2, 4, 6):
        assert sp.zr(2, a, 0).rank == 0


# ---------------------------------------------------------------------------
# boundaries


def test_b1_is_d0_image():
    c = hurtubise(4, QQ)
    sp = SpectralPages(c)
    for (p, q) in c.support:
        m = c.dmap(0, p, q + 1)
        expected = image(m) if m is not None else None
        got = sp.br(1, p, q)
        if expected is None:
            assert got.rank == 0
        else:
            assert got == expected


def test_staircase_topleft_boundaries():
    # At the top-left generator: B_2 = 0 (the single co-witness is killed
    # by the constraint d_0 c = 0), while B_3 is the full rank-1 module
    # (solve the two-variable constraint system: c2 = -c1).
    sp = SpectralPages(staircase(2, QQ))
    assert sp.br(2, 0, 1).rank == 0
    assert sp.br(3, 0, 1).rank == 1


def test_b_r_of_empty_multicomplex():
    c = Multicomplex(QQ, {}, {})
    assert SpectralPages(c).br(2, 0, 0).rank == 0


def test_cowitness_generators_certify_boundaries():
    c = staircase(2, QQ)
    sp = SpectralPages(c)
    br, cows = sp.br(3, 0, 1), cowitnesses(sp, 3, 0, 1)
    assert br.rank == 1 and len(cows) >= 1
    for cow in cows:
        assert star2_holds(c, 3, 0, 1, cow)
        x = boundary_value(c, 3, 0, 1, cow)
        assert contains(br, x)


# ---------------------------------------------------------------------------
# witnesses


def test_zero_element_gets_zero_witness():
    c = hurtubise(1, QQ)
    w = witness_tuple(SpectralPages(c), 2, 2, 0, [0])
    assert all(not any(v) for v in w.z.values())


def test_staircase_witness_is_next_step():
    # For the bottom-right generator D, the witness is B with d_0 B = d_1 D.
    c = hurtubise(1, QQ)
    w = witness_tuple(SpectralPages(c), 2, 2, 0, [1])
    assert w.z[1] == [1]
    assert star1_holds(c, 2, 2, 0, [1], w)


def test_hurtubise4_witnesses():
    sp = SpectralPages(hurtubise(4, ZZ))
    wx = witness_tuple(sp, 2, 2, 0, [1, 0])
    assert wx.z[1] == [1]  # witnessed by z
    wy = witness_tuple(sp, 2, 2, 0, [0, 1])
    assert wy.z[1] == [0]  # witnessed by 0


@pytest.mark.parametrize("ring", [QQ, ZZ, GF(2)], ids=str)
def test_zero_witness_has_a_zero_vector_per_block(ring):
    # Where Z_r = 0, x = 0 solves on no generator at all: its witnesses are
    # still one zero vector of each block's rank, not empty vectors.
    c = random_mcx(RandomSpec(seed=1, width=5, height=5, maxrank=2, maxd=3, ring=ring))
    sp = SpectralPages(c)
    seen = 0
    for (p, q) in c.support:
        for r in range(2, 6):
            if not sp.zr(r, p, q).rank:
                wit = witness_tuple(sp, r, p, q, [0] * c.rank(p, q))
                assert wit.z == {j: [ring.zero()] * c.rank(p - j, q + j) for j in range(1, r)}
                seen += 1
    assert seen


def test_witness_rejects_non_cycles():
    c = hurtubise(4, QQ)
    with pytest.raises(MembershipError):
        SpectralPages(c).witness(2, 1, 1, [1])  # d_0 z != 0


def test_witness_scramble_still_satisfies_star1():
    for ring in RINGS:
        c = random_mcx(RandomSpec(seed=7, width=4, height=4, maxrank=2, maxd=3, ring=ring))
        sp = SpectralPages(c)
        for r in range(1, sp.stabilization_bound() + 2):
            for (p, q) in c.support:
                for g in sp.entry(r, p, q).quot.gens:
                    w1 = witness_tuple(sp, r, p, q, list(g))
                    w2 = witness_tuple(sp, r, p, q, list(g), 123)
                    assert star1_holds(c, r, p, q, list(g), w1), (ring, r, p, q)
                    assert star1_holds(c, r, p, q, list(g), w2), (ring, r, p, q)


def test_page_zero_witness_is_empty():
    # Page 0 has no witness blocks, whatever x is; the chain starts at r = 1.
    c = hurtubise(4, QQ)
    sp = SpectralPages(c)
    for (p, q) in c.support:
        for x in ([0] * c.rank(p, q), [1] * c.rank(p, q)):
            assert witness_tuple(sp, 0, p, q, x).z == {}
            with pytest.raises(ValueError):
                sp.witness(0, p, q, x)
        with pytest.raises(ValueError):
            sp._chain(0, p, q)


# ---------------------------------------------------------------------------
# the explicit boundary-to-cycle witness formula


def test_prop25_zero_cowitness():
    c = hurtubise(1, QQ)
    cow = CoWitnessTuple(2, 0, 1, {0: [], 1: [0]})
    w = prop25_witness(c, 2, 0, 1, cow)
    assert all(not any(v) for v in w.z.values())


def test_prop25_bicomplex_specialization():
    # For a bicomplex at r = 2 the formula collapses to z_{p-1} = -d_1 c_p.
    c = staircase(3, QQ)
    sp = SpectralPages(c)
    p, q = 1, 1  # bottom cell S_1; c_p lives in C_{1,2} = T_1's cell
    cow = CoWitnessTuple(2, p, q, {0: [1], 1: [0]})
    assert star2_holds(c, 2, p, q, cow)
    w = prop25_witness(c, 2, p, q, cow)
    m = c.dmap(1, p, q + 1)
    expect = [-v for v in to_cols(m)[0]] if m is not None else []
    assert w.z[1] == expect


@pytest.mark.parametrize("ring", [GF(2), ZZ], ids=str)
def test_prop25_property_on_random_instances(ring):
    for seed in range(4):
        c = random_mcx(RandomSpec(seed=seed, width=4, height=4, maxrank=2, maxd=3, ring=ring))
        sp = SpectralPages(c)
        for (p, q) in c.support:
            for r in range(2, sp.stabilization_bound() + 2):
                for cow in cowitnesses(sp, r, p, q):
                    w = prop25_witness(c, r, p, q, cow)
                    x = boundary_value(c, r, p, q, cow)
                    assert star1_holds(c, r, p, q, x, w)


def test_prop25_rejects_bad_cowitness():
    c = hurtubise(1, QQ)
    # c_1 = T_1 fails the constraint d_0 c_1 = 0 at (0,1), r = 2
    cow = CoWitnessTuple(2, 0, 1, {0: [], 1: [1]})
    with pytest.raises(ValueError):
        prop25_witness(c, 2, 0, 1, cow)


# ---------------------------------------------------------------------------
# entries


def test_entry_r1_bicomplex_is_d0_homology():
    c = staircase(3, GF(5))
    sp = SpectralPages(c)
    for (p, q) in c.support:
        e = sp.entry(1, p, q)
        m_in = c.dmap(0, p, q + 1)
        m_out = c.dmap(0, p, q)
        zr = kernel(m_out) if m_out is not None else None
        if zr is None:
            zr = SubmodulePresentation.full(GF(5), c.rank(p, q))
        br = image(m_in) if m_in is not None else None
        if br is None:
            br = SubmodulePresentation.zero(GF(5), c.rank(p, q))
        assert e.invariants == subquotient(zr, br).invariants


def test_hurtubise1_page2_table():
    page = SpectralPages(hurtubise(1, QQ)).page(2)
    assert page.invariants_table() == {(0, 1): (0,), (2, 0): (0,)}


def test_page0_is_module_table():
    c = hurtubise(4, ZZ)
    sp = SpectralPages(c)
    for (p, q), r in c.ranks.items():
        e, d = sp.entry(0, p, q), sp.delta(0, p, q)
        assert e.invariants == (0,) * r
        m = c.dmap(0, p, q)
        expect = tuple(tuple(row) for row in m.data) if m is not None else None
        if expect is not None:
            assert d.rows == expect
        assert sp.delta(0, p - 0, q - 1).is_zero() or True  # composable squares checked below


def test_page0_squares_to_zero():
    c = wall(WallParams(3, 2, 2, 4))
    sp = SpectralPages(c)
    for (p, q) in c.support:
        d1 = sp.delta(0, p, q)
        d2 = sp.delta(0, p, q - 1)
        tgt = sp.entry(0, p, q - 2)
        for col in range(len(d1.source_invariants)):
            once = [row[col] for row in d1.rows]
            twice = d2.apply(once, tgt.quot)
            assert not any(twice)


def test_staircase_delta0_is_identity_arrow():
    c = staircase(2, QQ)
    sp = SpectralPages(c)
    assert sp.delta(0, 1, 1).rows == ((1,),)


# ---------------------------------------------------------------------------
# differentials


def test_hurtubise4_delta2_vs_d2():
    for ring in (QQ, ZZ):
        c = hurtubise(4, ring)
        d = SpectralPages(c).delta(2, 2, 0)
        rows = [[int(v) for v in row] for row in d.rows]
        assert rows == [[-1, 0], [0, 1]]
        induced = c.dmap(2, 2, 0).data
        assert rows != [[int(v) for v in row] for row in induced]


def test_wall_delta2_zero_in_window_interior():
    c = wall(WallParams(3, 2, 2, 6))
    sp = SpectralPages(c)
    for p in range(0, 3):
        for q in range(0, 3):
            assert sp.delta(2, p, q).is_zero()


def test_bicomplex_delta1_is_induced_d1():
    c = staircase(4, GF(2))
    sp = SpectralPages(c)
    for (p, q) in c.support:
        d = sp.delta(1, p, q)
        e_src = sp.entry(1, p, q)
        e_tgt = sp.entry(1, p - 1, q)
        m = c.dmap(1, p, q)
        for j, g in enumerate(e_src.quot.gens):
            v = m.matvec(list(g)) if m is not None else [GF(2).zero()] * c.rank(p - 1, q)
            assert e_tgt.quot.reduce(v) == tuple(row[j] for row in d.rows)


def test_delta_independent_of_witness_choice():
    c = random_mcx(RandomSpec(seed=11, width=5, height=4, maxrank=2, maxd=4, ring=ZZ))
    sp = SpectralPages(c)
    for (p, q) in c.support:
        for r in (2, 3):
            e = sp.entry(r, p, q)
            for g in e.quot.gens:
                one = delta_with_witness(sp, r, p, q, list(g))
                two = delta_with_witness(sp, r, p, q, list(g), scramble=99)
                assert one == two


# ---------------------------------------------------------------------------
# full pages and stabilization


def _einf(sp):
    """Page stabilization_bound(): equal to the next page, with no differential."""
    bound = sp.stabilization_bound()
    stable, beyond = sp.page(bound), sp.page(bound + 1)
    assert stable.invariants_table() == beyond.invariants_table()
    assert stable.deltas == beyond.deltas == {}
    return stable


def test_stabilization_bound_single_column():
    sp = SpectralPages(Multicomplex(QQ, {(0, 0): 1, (0, 1): 2}, {}))
    assert sp.stabilization_bound() == 2
    page = _einf(sp)
    assert page.invariants_table() == sp.page(1).invariants_table()


def test_hurtubise1_einf_vanishes():
    page = _einf(SpectralPages(hurtubise(1, QQ)))
    assert page.invariants_table() == {}


def test_hurtubise3_einf_is_e2():
    sp = SpectralPages(hurtubise(3, QQ))
    page = _einf(sp)
    assert page.invariants_table() == sp.page(2).invariants_table()
    assert sum(len(v) for v in page.invariants_table().values()) == 2


def test_nesting_of_cycles_and_boundaries():
    for ring in (GF(2), ZZ):
        c = random_mcx(RandomSpec(seed=5, width=4, height=4, maxrank=2, maxd=3, ring=ring))
        sp = SpectralPages(c)
        rmax = sp.stabilization_bound()
        for (p, q) in c.support:
            for r in range(1, rmax):
                assert includes(sp.zr(r, p, q), sp.zr(r + 1, p, q))
                assert includes(sp.br(r + 1, p, q), sp.br(r, p, q))
                assert includes(sp.zr(r, p, q), sp.br(r, p, q))


# ---------------------------------------------------------------------------
# per-degree bounds: Z_r is constant from r_z on, B_r from r_b on


def _bounds(c, p, q):
    """(r_z, r_b) of the cell (p, q), from the columns of degrees n - 1 and n + 1."""
    n = p + q
    left = [a for a, b in c.support if a + b == n - 1 and a < p]
    right = [a for a, b in c.support if a + b == n + 1 and a > p]
    return 1 + p - min(left, default=p), 1 + max(right, default=p) - p


def test_modules_past_the_bidegree_bound_make_no_kernel_call(monkeypatch):
    import mcss.pages

    calls = []
    original = mcss.pages.kernel

    def counting(m):
        calls.append((m.rows, m.cols))
        return original(m)

    monkeypatch.setattr(mcss.pages, "kernel", counting)
    for ring in (GF(2), ZZ):
        c = random_mcx(RandomSpec(seed=4, width=5, height=4, maxrank=2, maxd=3, ring=ring))
        sp = SpectralPages(c)
        for (p, q) in c.support:
            zb, bb = _bounds(c, p, q)
            sp.zr(zb, p, q)
            sp.br(bb, p, q)
        assert calls
        del calls[:]
        for (p, q) in c.support:
            zb, bb = _bounds(c, p, q)
            assert sp.zr(zb + 3, p, q) == sp.zr(zb, p, q)
            assert sp.br(bb + 3, p, q) == sp.br(bb, p, q)
        assert calls == []


def _unimodular(rng, k):
    """A k x k integer matrix of determinant +-1 and its inverse."""
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    inv = [row[:] for row in u]
    for _ in range(2 * k if k > 1 else 0):
        i, j = rng.sample(range(k), 2)
        f = rng.choice((-2, -1, 1, 2))
        # row_i += f row_j on u is col_j -= f col_i on its inverse.
        u[i] = [x + f * y for x, y in zip(u[i], u[j])]
        for row in inv:
            row[j] -= f * row[i]
    return Mat(ZZ, k, k, u), Mat(ZZ, k, k, inv)


def dense_z(seed, copies=3):
    """Direct sum of random 4x4 Z windows, in a seeded unimodular basis per cell."""
    rng = random.Random(seed)
    parts = [random_mcx(RandomSpec(seed=rng.randrange(10**9), width=4, height=4,
                                   maxrank=3, maxd=3, ring=ZZ)) for _ in range(copies)]
    ranks, offsets = {}, []
    for part in parts:
        offsets.append({cell: ranks.get(cell, 0) for cell in part.ranks})
        for cell, k in part.ranks.items():
            ranks[cell] = ranks.get(cell, 0) + k
    grids = {}
    for part, offs in zip(parts, offsets):
        for (i, a, b), m in part.maps.items():
            tgt = (a - i, b + i - 1)
            grid = grids.setdefault((i, a, b), [[0] * ranks[(a, b)] for _ in range(ranks[tgt])])
            for row, src in zip(grid[offs[tgt]:], m.data):
                row[offs[(a, b)]:offs[(a, b)] + m.cols] = src
    basis = {cell: _unimodular(rng, k) for cell, k in sorted(ranks.items())}
    maps = {
        (i, a, b): basis[(a - i, b + i - 1)][0].mul(Mat(ZZ, len(grid), ranks[(a, b)], grid))
        .mul(basis[(a, b)][1])
        for (i, a, b), grid in grids.items()
    }
    c = Multicomplex(ZZ, ranks, maps)
    assert c.validate() == []
    return c


REFERENCE_INSTANCES = {
    **{f"random-{ring}": (lambda ring=ring: random_mcx(RandomSpec(
        seed=0, width=5, height=5, maxrank=3, maxd=3, ring=ring))) for ring in RINGS},
    "wall-3-2-2": lambda: wall(WallParams(3, 2, 2, 6)),
    "dense-Z": lambda: dense_z(1),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_INSTANCES))
def test_clamped_modules_match_unclamped_systems(name):
    # Z_r and B_r for every support cell and r up to the bound + 2, against
    # the cycle and boundary systems built at r itself, without the clamp.
    c = REFERENCE_INSTANCES[name]()
    ring = c.ring
    sp = SpectralPages(c)
    for r in range(1, sp.stabilization_bound() + 3):
        for (p, q) in c.support:
            nx = c.rank(p, q)
            ker = kernel(cycle_system(sp, r, p, q)[0])
            zr = scalar_span(ring, nx, [g[:nx] for g in ker.gens])
            assert sp.zr(r, p, q) == zr, (r, p, q)
            values = [boundary_value(c, r, p, q, cow) for cow in cowitnesses(sp, r, p, q)]
            assert sp.br(r, p, q) == scalar_span(ring, nx, values), (r, p, q)


def test_equal_module_pairs_share_one_subquotient(monkeypatch):
    import mcss.pages

    calls = []
    original = mcss.pages.subquotient

    def counting(z, b):
        calls.append((z, b))
        return original(z, b)

    monkeypatch.setattr(mcss.pages, "subquotient", counting)
    instances = [
        wall(WallParams(3, 2, 2, 6)),
        random_mcx(RandomSpec(seed=0, width=5, height=5, maxrank=3, maxd=3, ring=QQ)),
    ]
    for c in instances:
        del calls[:]
        sp = SpectralPages(c)
        for r in range(sp.stabilization_bound() + 2):
            sp.page(r)
        pairs = {(e.zr, e.br) for e in sp._entries.values()}
        assert len(calls) == len(pairs)


def test_pages_build_no_boundary_system(monkeypatch):
    # Z_r and B_r come off one kernel chain per cell: each kernel is one
    # cell's rows, one per (cell, r) below the cycle bound at most, and the
    # co-witness system is never built.
    import mcss.pages

    def refuse(*args):
        raise AssertionError("pages built a co-witness system")

    rows = []
    original = mcss.pages.kernel

    def counting(m):
        rows.append(m.rows)
        return original(m)

    monkeypatch.setattr("oracles.cowitnesses", refuse)
    monkeypatch.setattr(mcss.pages, "kernel", counting)
    instances = [wall(WallParams(3, 2, 2, 6))] + [
        random_mcx(RandomSpec(seed=0, width=5, height=5, maxrank=3, maxd=3, ring=ring))
        for ring in (QQ, ZZ, GF(2))
    ]
    for c in instances:
        del rows[:]
        sp = SpectralPages(c)
        for r in range(sp.stabilization_bound() + 2):
            sp.page(r)
        assert rows
        assert max(rows) <= max(c.ranks.values())
        assert len(rows) <= sum(_bounds(c, p, q)[0] for p, q in c.support)


@pytest.mark.parametrize("name", ["random-Z", "random-F 2", "wall-3-2-2"])
def test_modules_do_not_depend_on_request_order(name):
    # Each cell's chain only grows; asking for Z_r/B_r in a shuffled order
    # must give the modules of an engine asked page by page.
    c = REFERENCE_INSTANCES[name]()
    ordered, shuffled = SpectralPages(c), SpectralPages(c)
    expected = {
        (kind, r, p, q): getattr(ordered, kind)(r, p, q)
        for r in range(1, ordered.stabilization_bound() + 3)
        for (p, q) in c.support for kind in ("zr", "br")
    }
    keys = sorted(expected)
    random.Random(1).shuffle(keys)
    for kind, r, p, q in keys:
        assert getattr(shuffled, kind)(r, p, q) == expected[kind, r, p, q], (kind, r, p, q)


def _entry_key(e):
    return e.zr, e.br, e.invariants, e.quot.gens


def test_far_page_matches_pages_asked_in_order():
    # B_r is filled forward from the last page held, not by recursion, so a
    # fresh engine answers page 401 of a 400-column support at once.
    c = Multicomplex(ZZ, {(0, 0): 1, (400, 0): 1}, {})
    ordered, far = SpectralPages(c), SpectralPages(c)
    for r in range(1, 402):
        ordered.entry(r, 0, 0)
        ordered.delta(r, 0, 0)
    assert far.br(401, 0, 0) == ordered.br(401, 0, 0)
    assert _entry_key(far.entry(401, 0, 0)) == _entry_key(ordered.entry(401, 0, 0))
    assert far.delta(401, 0, 0) == ordered.delta(401, 0, 0)


@pytest.mark.parametrize("name", ["random-Z", "random-Q", "wall-3-2-2"])
def test_far_requests_fill_nothing_past_the_bounds(name):
    # Z_r and B_r at r = 10**6 on a fresh engine are the modules at the
    # cell's bounds, and no chain or B store grows past any cell's bound.
    c = REFERENCE_INSTANCES[name]()
    for (p, q) in c.support:
        zb, bb = _bounds(c, p, q)
        sp = SpectralPages(c)
        zr, br = sp.zr(10**6, p, q), sp.br(10**6, p, q)
        assert all(s <= _bounds(c, a, b)[1] for s, a, b in sp._br), (p, q)
        assert all(len(steps) <= _bounds(c, a, b)[0]
                   for (a, b), steps in sp._chains.items()), (p, q)
        fresh = SpectralPages(c)
        assert (zr, br) == (fresh.zr(zb, p, q), fresh.br(bb, p, q)), (p, q)


ZERO_PAGE_RINGS = (ZZ, QQ, GF(2))


def _zero_page_instances(ring):
    return [random_mcx(RandomSpec(seed=seed, width=6, height=6, maxrank=3, maxd=3, ring=ring))
            for seed in range(15)]


@pytest.mark.parametrize("ring", ZERO_PAGE_RINGS, ids=str)
def test_zero_pages_do_not_depend_on_request_order(ring):
    # An engine swept page by page serves a cell's later pages from its
    # first zero page; a fresh engine asked cell by cell in shuffled order,
    # from the far page down, computes them, and its modules, read off the
    # entry or asked directly, must be the same.
    dead = 0
    for seed, c in enumerate(_zero_page_instances(ring)):
        swept, cold = SpectralPages(c), SpectralPages(c)
        pages = range(swept.stabilization_bound() + 2)
        for r in pages:
            swept.page(r)
        cells = sorted(c.support)
        random.Random(seed).shuffle(cells)
        for (p, q) in cells:
            for r in reversed(pages):
                e, want = cold.entry(r, p, q), swept.entry(r, p, q)
                assert (e.zr, e.br, e.invariants) == (want.zr, want.br, want.invariants), (r, p, q)
                if r:
                    assert (cold.zr(r, p, q), cold.br(r, p, q)) == (want.zr, want.br), (r, p, q)
            dead += not swept.entry(pages[-1], p, q).invariants
    assert dead > 20


@pytest.mark.parametrize("ring", ZERO_PAGE_RINGS, ids=str)
def test_cells_past_their_zero_page_still_have_witnesses(ring):
    # A dead cell's chain is not extended to read B_r values, but its
    # r-cycles still get witnesses on every later page.
    checked = 0
    for c in _zero_page_instances(ring):
        sp = SpectralPages(c)
        pages = range(sp.stabilization_bound() + 2)
        for r in pages:
            sp.page(r)
        for (p, q) in c.support:
            zero = next((r for r in pages if not sp.entry(r, p, q).invariants), pages[-1])
            for r in range(zero + 1, len(pages)):
                for g in sp.zr(r, p, q).gens:
                    wit = witness_tuple(sp, r, p, q, g)
                    assert star1_holds(c, r, p, q, list(g), wit), (r, p, q)
                    checked += 1
    assert checked > 100


@pytest.mark.parametrize("ring", ZERO_PAGE_RINGS, ids=str)
def test_page_holds_every_differential_that_can_be_nonzero(ring):
    # page(r) builds Delta_r out of every nonzero entry into a present cell,
    # equal to the one an engine that never builds a page computes; every
    # other Delta_r, asked of that engine, is zero.
    built = omitted = 0
    for c in _zero_page_instances(ring):
        sp, fresh = SpectralPages(c), SpectralPages(c)
        for r in range(sp.stabilization_bound() + 2):
            page = sp.page(r)
            live = {(p, q) for (p, q) in c.support
                    if fresh.entry(r, p, q).invariants and c.rank(p - r, q + r - 1)}
            assert set(page.deltas) == live, r
            for (p, q) in c.support:
                want = fresh.delta(r, p, q)
                if (p, q) in live:
                    d = page.deltas[(p, q)]
                    assert (d.rows, d.source_invariants, d.target_invariants) == (
                        want.rows, want.source_invariants, want.target_invariants), (r, p, q)
                    built += not d.is_zero()
                else:
                    assert want.is_zero(), (r, p, q)
                    omitted += 1
    assert built > 20 and omitted > built


def test_pages_store_only_differentials_that_can_be_nonzero():
    # Wall (3,2,2) at amax 16, paged to the bound: 5,491 (r, cell) visits,
    # when every visit built and stored its Delta_r.
    sp = SpectralPages(wall(WallParams(3, 2, 2, 16)))
    assert sum(len(sp.page(r).deltas) for r in range(sp.stabilization_bound() + 1)) == 508


def _page_key(page):
    return page.invariants_table(), {cell: (d.rows, d.source_invariants, d.target_invariants)
                                     for cell, d in page.deltas.items()}


PAGE_ORDER_INSTANCES = ("Z", "Q-fractional", "F2", "F97", "wall-3-2-2-a16")


def _page_order_instances():
    from test_filtered import _rescaled

    spec = dict(seed=3, width=6, height=6, maxrank=3, maxd=3)
    return dict(zip(PAGE_ORDER_INSTANCES, (
        random_mcx(RandomSpec(ring=ZZ, **spec)),
        _rescaled(random_mcx(RandomSpec(ring=QQ, **spec)), 3),
        random_mcx(RandomSpec(ring=GF(2), **spec)),
        random_mcx(RandomSpec(ring=GF(97), **spec)),
        wall(WallParams(3, 2, 2, 16)),
    )))


@pytest.mark.parametrize("name", PAGE_ORDER_INSTANCES)
def test_pages_in_order_match_the_per_cell_loop(name):
    # Asked in order, a page asks only for its live cells and keeps page
    # r-1's entry object for the others; a fresh engine asked for every
    # cell on every page must give the same tables and Delta_r, and the
    # kept objects are the ones `entry` returns.
    c = _page_order_instances()[name]
    if name == "Q-fractional":
        assert any(x.denominator > 1 for m in c.maps.values() for row in m.data for x in row)
    sp, loop = SpectralPages(c), SpectralPages(c)
    carried = 0
    for r in range(sp.stabilization_bound() + 2):
        page = sp.page(r)
        assert _page_key(page) == _page_key(per_cell_page(loop, r)), r
        assert all(e is sp.entry(r, *cell) for cell, e in page.entries.items()), r
        carried += sum(r > sp._last[cell] for cell in c.support)
    assert carried


@pytest.mark.parametrize("order", ["bound-1-2-3", "0-2-4"])
def test_pages_out_of_order_match_the_per_cell_loop(order):
    # The bound page first, then pages 1, 2 and 3: only the last two
    # follow the page before them.  Every other page: none does.
    for name, c in _page_order_instances().items():
        sp = SpectralPages(c)
        bound = sp.stabilization_bound()
        for r in (bound, 1, 2, 3) if order == "bound-1-2-3" else (0, 2, 4):
            assert _page_key(sp.page(r)) == _page_key(per_cell_page(SpectralPages(c), r)), (name, r)


def test_mutating_a_page_leaves_the_next_page_alone():
    # Page 2 keeps page 1's entries for the cells found zero on page 1; a
    # caller that writes E_0 over every entry of the page it was handed
    # must not change them.
    c = wall(WallParams(3, 2, 2, 8))
    sp = SpectralPages(c)
    page = sp.page(1)
    for cell in page.entries:
        page.entries[cell] = sp.entry(0, *cell)
    assert any(sp._last[cell] < 2 for cell in c.support)
    assert _page_key(sp.page(2)) == _page_key(per_cell_page(SpectralPages(c), 2))


def _witness_targets(monkeypatch, sp):
    """Pages 0 to bound + 1 and Delta_r out of every cell; the target of each witness solve."""
    targets = []
    original = SpectralPages.witness

    def counting(self, r, p, q, x):
        targets.append((p - r, q + r - 1))
        return original(self, r, p, q, x)

    monkeypatch.setattr(SpectralPages, "witness", counting)
    for r in range(sp.stabilization_bound() + 2):
        built = sp.page(r).deltas
        for (p, q) in sp.c.support:
            if (p, q) not in built:
                sp.delta(r, p, q)
    return targets


@pytest.mark.parametrize("name", sorted(REFERENCE_INSTANCES))
def test_no_witness_for_a_differential_into_an_absent_cell(name, monkeypatch):
    # Delta_r solves one witness per source generator, the combination of
    # the chain's rows whose V_r values it reads.  A value in an absent cell
    # has no coordinates, so it gets no witness; a present target gets one
    # per source generator on every page r >= 1 (Delta_0 is d_0) where
    # Z_{r+1} != Z_r.  Where they are equal Delta_r is zero, and solving a
    # witness for each source generator there too took 24 more on dense-Z.
    c = REFERENCE_INSTANCES[name]()
    sp = SpectralPages(c)
    targets = _witness_targets(monkeypatch, sp)
    assert targets
    assert all(c.rank(*t) for t in targets)
    assert len(targets) == sum(len(sp.entry(r, p, q).quot.gens)
                               for r in range(1, sp.stabilization_bound() + 2)
                               for (p, q) in c.support
                               if c.rank(p - r, q + r - 1) and sp.zr(r + 1, p, q) != sp.zr(r, p, q))


@pytest.mark.parametrize("name", sorted(REFERENCE_INSTANCES))
def test_delta_is_zero_exactly_where_z_holds(name, monkeypatch):
    # ker Delta_r = Z_{r+1}/B_r at the source and im Delta_r = B_{r+1}/B_r at
    # the target (McCleary 2001, Thm 2.6): Delta_r is zero exactly when
    # Z_{r+1} = Z_r, and exactly then B_{r+1} = B_r at a present target.
    # A zero map is built without solving a witness.
    c = REFERENCE_INSTANCES[name]()
    sp = SpectralPages(c)
    solved = []
    original = SpectralPages.witness

    def counting(self, r, p, q, x):
        solved.append((r, p, q))
        return original(self, r, p, q, x)

    monkeypatch.setattr(SpectralPages, "witness", counting)
    zero = nonzero = 0
    for r in range(sp.stabilization_bound() + 2):
        for (p, q) in c.support:
            solved.clear()
            d = sp.delta(r, p, q)
            holds = sp.zr(r + 1, p, q) == sp.entry(r, p, q).zr
            assert d.is_zero() == holds, (r, p, q)
            tp, tq = d.target
            if nt := c.rank(tp, tq):
                below = sp.br(r, tp, tq) if r else SubmodulePresentation.zero(c.ring, nt)
                assert (sp.br(r + 1, tp, tq) == below) == holds, (r, p, q)
            if holds:
                assert solved == [], (r, p, q)
                zero += 1
            else:
                nonzero += 1
    assert zero and nonzero


def test_wide_sparse_pages_solve_no_witness(monkeypatch):
    # Two rank-1 cells 1000 columns apart: every differential leaves the support.
    c = Multicomplex(ZZ, {(0, 0): 1, (1000, 0): 1}, {})
    assert _witness_targets(monkeypatch, SpectralPages(c)) == []


def _system_witness(sp, r, p, q, x):
    """A witness solved on the z columns of the full cycle system at r."""
    ring = sp.c.ring
    mat, offs = cycle_system(sp, r, p, q)
    nx = offs[1]
    rhs = [-v for v in Mat(ring, mat.rows, nx, [row[:nx] for row in mat.data]).matvec(x)]
    z = solve(Mat(ring, mat.rows, mat.cols - nx, [row[nx:] for row in mat.data]), rhs)
    assert z is not None, (r, p, q)
    return WitnessTuple(r, p, q, {j: z[offs[j] - nx:offs[j + 1] - nx] for j in range(1, r)})


@pytest.mark.parametrize("name", sorted(REFERENCE_INSTANCES))
def test_chain_witnesses_match_full_system_oracle(name):
    # Every chain witness satisfies the cycle equations, and a witness solved
    # on the full cycle system gives the same Delta column; an x in
    # ker d_0 outside Z_r has no witness.
    c = REFERENCE_INSTANCES[name]()
    sp = SpectralPages(c)
    for r in range(1, sp.stabilization_bound() + 3):
        for (p, q) in c.support:
            src, tgt = sp.entry(r, p, q), sp.entry(r, p - r, q + r - 1)
            d = sp.delta(r, p, q)
            for j, g in enumerate(src.quot.gens):
                x = list(g)
                assert star1_holds(c, r, p, q, x, witness_tuple(sp, r, p, q, x)), (r, p, q)
                v = delta_value(c, r, p, q, x, _system_witness(sp, r, p, q, x))
                assert tgt.quot.reduce(v) == tuple(row[j] for row in d.rows), (r, p, q)
            zr = sp.zr(r, p, q)
            for x in sp.zr(1, p, q).gens:
                if not contains(zr, x):
                    with pytest.raises(MembershipError):
                        sp.witness(r, p, q, list(x))


@pytest.mark.parametrize("ring", [ZZ, GF(2), GF(97), QQ], ids=str)
def test_chain_steps_match_kernel_then_span(ring):
    # Each chain step K_{s+1} is built in one elimination that carries the
    # image along; it equals the kernel of [V_s | -d_0], mapped onto K_s's
    # rows and spanned.  Over Q the maps are fractional.  Covered among the
    # steps with nonzero V_s: a z_s cell with no d_0 out of it, and no
    # z_s cell at all.
    from test_filtered import _rescaled

    instances = [random_mcx(RandomSpec(seed=seed, width=5, height=5, maxrank=3, maxd=3,
                                       ring=ring)) for seed in range(3)]
    if ring is QQ:
        instances = [_rescaled(c, seed) for seed, c in enumerate(instances)]
        assert any(x.denominator > 1 for m in instances[0].maps.values()
                   for row in m.data for x in row)
    if ring is ZZ:
        instances += [wall(WallParams(3, 2, 2, 6)), dense_z(1)]
    no_d0 = no_z = 0
    for c in instances:
        sp = SpectralPages(c)
        for (p, q) in c.support:
            sp.zr(sp.stabilization_bound() + 1, p, q)
            steps = sp._chains.get((p, q), [])
            for s, ((_, values, k), (_, _, k1)) in enumerate(zip(steps, steps[1:]), 1):
                assert k1 == chain_step(c, k, s, p, q, values), (p, q, s)
                if any(map(any, values[0])):
                    nz = c.rank(p - s, q + s)
                    no_d0 += nz > 0 and c.dmap(0, p - s, q + s) is None
                    no_z += nz == 0
    assert no_d0 and no_z


def test_pages_build_no_full_cycle_system(monkeypatch):
    # Witnesses come off each cell's kernel chain: neither the pages nor the
    # cross-check ever assemble the full cycle system.
    def refuse(*args):
        raise AssertionError("pages built a full cycle system")

    monkeypatch.setattr("oracles.cycle_system", refuse)
    for name in sorted(REFERENCE_INSTANCES):
        c = REFERENCE_INSTANCES[name]()
        sp = SpectralPages(c)
        for r in range(sp.stabilization_bound() + 2):
            sp.page(r)
        report = compare_engines(SpectralPages(c), FilteredPages(totalize(c)))
        assert report.ok, name


def test_scrambled_witnesses_differ_and_agree():
    # A scrambled witness adds a seeded x = 0 element of the chain's kernel:
    # it is a different valid witness, with the same Delta value.  Zero is
    # checked too, also on pages past a chain that ended at Z_s = 0.
    differ = 0
    for name in sorted(REFERENCE_INSTANCES):
        c = REFERENCE_INSTANCES[name]()
        sp = SpectralPages(c)
        for r in range(1, sp.stabilization_bound() + 2):
            for (p, q) in c.support:
                zero = [0] * c.rank(p, q)
                assert star1_holds(c, r, p, q, zero, witness_tuple(sp, r, p, q, zero, 7))
                for g in sp.entry(r, p, q).quot.gens:
                    x = list(g)
                    one = witness_tuple(sp, r, p, q, x)
                    two = witness_tuple(sp, r, p, q, x, 7)
                    differ += one != two
                    assert star1_holds(c, r, p, q, x, two), (name, r, p, q)
                    assert (delta_with_witness(sp, r, p, q, x)
                            == delta_with_witness(sp, r, p, q, x, scramble=7)), (name, r, p, q)
    assert differ


def test_engine_refuses_invalid_multicomplex():
    # Unchecked, the engine returned tables for pages 0 and 1 of this
    # input, raised WellDefinednessError on page 2 and gave empty pages 3
    # and 4.  It now refuses it, naming the first violated relation.
    c = broken_c2()
    first = c.validate()[0]
    with pytest.raises(RelationError) as exc:
        SpectralPages(c)
    assert isinstance(exc.value, ValueError)
    assert str(exc.value) == f"invalid multicomplex: {first}"
    assert str(exc.value).startswith("invalid multicomplex: n=1 at (1,1): nonzero composite")


@pytest.mark.parametrize("ring", [ZZ, QQ], ids=str)
@pytest.mark.parametrize("build", [SpectralPages, totalize, compare], ids=lambda f: f.__name__)
def test_engines_refuse_with_every_violation(ring, build):
    # Both engines and totalize carry validate()'s whole list, not only
    # its first entry, which names the error.
    c = broken_twice(ring)
    want = c.validate()
    assert len(want) >= 2
    with pytest.raises(RelationError) as exc:
        build(c)
    assert exc.value.violations == want
    assert str(exc.value) == f"invalid multicomplex: {want[0]}"
