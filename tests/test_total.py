"""Total complex assembly, basis blocks and filtration masks."""

import random
from fractions import Fraction

import pytest

from mcss.builders import RandomSpec, hurtubise, random_mcx, staircase
from mcss.linalg import Mat, image
from mcss.multicomplex import Multicomplex, RelationError
from mcss.rings import GF, QQ, ZZ
from mcss.total import totalize
from oracles import (
    dense_differentials, differential, first_nonsquare_degree, relation_violations, to_cols,
    zero_vec,
)
from test_filtered import _rescaled


def _labels(t, n):
    """(a, b, k) of each degree-n coordinate: local index k of the (a, b) block."""
    return [(a, b, k) for a, b, rank in t.blocks(n) for k in range(rank)]


def test_totalize_staircase2():
    t = totalize(staircase(2, QQ))
    assert t.dim(2) == 2 and t.dim(1) == 2
    assert image(differential(t, 2)).rank == 2


def test_totalize_empty():
    t = totalize(Multicomplex(QQ, {}, {}))
    assert t.degrees() == []
    assert t.dim(0) == 0


def test_totalize_hurtubise3_block():
    t = totalize(hurtubise(3, QQ))
    assert t.den == 1 and t.columns(2) == [[1, 1], [1, 1]]
    assert image(differential(t, 2)).rank == 1


def test_basis_order_descending_first_index():
    t = totalize(staircase(3, ZZ))
    for n in t.degrees():
        labels = [a for a, _, _ in _labels(t, n)]
        assert labels == sorted(labels, reverse=True)
        # Each block sits at its block_start, and the blocks tile Tot_n in order.
        pos = 0
        for a, b, rank in t.blocks(n):
            assert a + b == n and t.block_start(n, a) == (pos, rank)
            pos += rank
        assert pos == t.dim(n)
        assert t.block_starts(n) == [t.block_start(n, a)[0] for a, _, _ in t.blocks(n)] + [pos]


def test_filtration_basis_extremes():
    t = totalize(staircase(2, ZZ))
    assert list(range(t.filtration_start(2, -1), t.dim(2))) == []
    assert list(range(t.filtration_start(2, 99), t.dim(2))) == [0, 1]
    assert list(range(t.filtration_start(2, 1), t.dim(2))) == [1]  # only the a = 1 generator


@pytest.mark.parametrize("ring", [QQ, GF(2), ZZ], ids=str)
def test_filtration_is_subcomplex_and_blockwise_formula(ring):
    for seed in range(5):
        c = random_mcx(RandomSpec(seed=seed, width=4, height=4, maxrank=2, maxd=3, ring=ring))
        t = totalize(c)
        for n in t.degrees():
            d = differential(t, n)
            filt_src = [a for a, _, _ in _labels(t, n)]
            filt_tgt = [a for a, _, _ in _labels(t, n - 1)]
            # d(F_p) inside F_p: matrix entries vanish unless a(row) <= a(col)
            for i, arow in enumerate(filt_tgt):
                for j, acol in enumerate(filt_src):
                    if arow > acol:
                        assert not d.data[i][j]
            # (dx)_a = sum_i d_i (x)_{a+i}, on every basis vector
            for a, b, k in _labels(t, n):
                x = [ring.zero()] * t.dim(n)
                start, _ = t.block_start(n, a)
                x[start + k] = ring.normalize(1)
                dx = d.matvec(x)
                for ta, _, _ in t.blocks(n - 1):
                    i = a - ta
                    start, width = t.block_start(n - 1, ta)
                    blk = dx[start:start + width]
                    m = c.dmap(i, a, b) if i >= 0 else None
                    expect = to_cols(m)[k] if m is not None else zero_vec(ring, len(blk))
                    assert blk == expect


def _perturbed(c, rng):
    """c with one entry of one map moved by a nonzero amount."""
    key = rng.choice(sorted(c.maps))
    m = c.maps[key]
    r, k = rng.randrange(m.rows), rng.randrange(m.cols)
    ring = c.ring
    step = (Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 3))) if ring is QQ
            else 1 + rng.randrange(ring.p - 1) if ring.p else rng.choice((-2, -1, 1, 2)))
    data = [list(row) for row in m.data]
    data[r][k] = ring.normalize(data[r][k] + step)
    return Multicomplex(ring, c.ranks, {**c.maps, key: Mat(ring, m.rows, m.cols, data)})


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(97)], ids=str)
def test_relation_checks_match_dense_oracles(ring):
    # validate() lists what probing every cell x n x j finds, in the same
    # order with the same composites; totalize refuses exactly the inputs
    # whose dense d_{n-1} d_n is nonzero, and the violations it carries
    # start at (a, b) with a + b the least such degree.
    rng = random.Random(20)
    broken = 0
    for seed in range(10):
        c = random_mcx(RandomSpec(seed=seed, width=4, height=4, maxrank=3, maxd=3, ring=ring))
        if ring is QQ:
            c = _rescaled(c, seed)
            assert any(x.denominator > 1 for m in c.maps.values() for row in m.data for x in row)
        for mc in (c, _perturbed(c, rng), _perturbed(c, rng)):
            want = relation_violations(mc)
            assert mc.validate() == want
            n = first_nonsquare_degree(mc)
            assert (n is None) == (want == [])
            if n is None:
                t = totalize(mc)
                dense = dense_differentials(mc)
                assert all(differential(t, k) == d for k, d in dense.items())
                # Every other degree's d_n has no entries: Tot_{n-1} is zero.
                assert all(not any(map(any, t.columns(k))) for k in t.degrees() if k not in dense)
            else:
                with pytest.raises(RelationError) as exc:
                    totalize(mc)
                assert exc.value.violations == want
                assert min(v.a + v.b for v in exc.value.violations) == n
            broken += n is not None
    assert broken >= 5
