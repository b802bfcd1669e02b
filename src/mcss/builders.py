"""Builders for the worked examples and for random valid multicomplexes.

Coordinate conventions for the staircase pictures are a choice (the
pictures carry none): the top-left generator sits at (0, r-1) and the
bottom-right at (r, 0), with d_0 arrows pointing down and d_1 arrows
pointing left.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .linalg import Mat
from .multicomplex import Multicomplex
from .rings import Ring, ZZ


def staircase(length: int, ring: Ring = ZZ) -> Multicomplex:
    """The staircase bicomplex with `length` identity d_1 arrows.

    2*length generators, all of rank 1: bottoms S_k at (k, length-1-k) for
    0 <= k < length and tops T_k at (k, length-k) for 1 <= k <= length,
    with d_1 T_k = S_{k-1} and d_0 T_k = S_k.
    """
    if length < 2:
        raise ValueError("staircase needs length >= 2")
    one = Mat(ring, 1, 1, [[1]])
    ranks = {}
    for k in range(length):
        ranks[(k, length - 1 - k)] = 1
    for k in range(1, length + 1):
        ranks[(k, length - k)] = 1
    maps = {}
    for k in range(1, length + 1):
        maps[(1, k, length - k)] = one
        if k <= length - 1:
            maps[(0, k, length - k)] = one
    return Multicomplex(ring, ranks, maps)


def hurtubise(n: int, ring: Ring = ZZ, length: int | None = None) -> Multicomplex:
    """The four small worked examples (over ZZ unless overridden).

    1: the short staircase.  2: staircase(length) for a caller-supplied
    length.  3: the short staircase with an extra identity d_2 from the
    bottom-right generator to the top-left one.  4: the rank-2 example
    whose second page differential disagrees with the map induced by d_2.
    """
    if n == 1:
        return staircase(2, ring)
    if n == 2:
        if length is None:
            raise ValueError("example 2 needs a staircase length")
        return staircase(length, ring)
    if n == 3:
        base = staircase(2, ring)
        maps = dict(base.maps)
        maps[(2, 2, 0)] = Mat(ring, 1, 1, [[1]])
        return Multicomplex(ring, dict(base.ranks), maps)
    if n == 4:
        ranks = {(2, 0): 2, (1, 1): 1, (1, 0): 1, (0, 1): 2}
        maps = {
            (0, 1, 1): Mat(ring, 1, 1, [[1]]),
            (1, 2, 0): Mat(ring, 1, 2, [[1, 0]]),
            (1, 1, 1): Mat(ring, 2, 1, [[1], [0]]),
            (2, 2, 0): Mat(ring, 2, 2, [[0, 0], [0, 1]]),
        }
        return Multicomplex(ring, ranks, maps)
    raise ValueError(f"unknown example number {n} (expected 1..4)")


@dataclass(frozen=True)
class WallParams:
    """Split metacyclic extension of Z/rk by Z/s with twist t, t^s = 1 mod rk."""

    rk: int
    s: int
    t: int
    amax: int = 8

    def __post_init__(self):
        if self.rk < 1 or self.s < 1 or self.t < 1:
            raise ValueError("group parameters must be positive")
        if pow(self.t, self.s, self.rk) != 1 % self.rk:
            raise ValueError(f"t^s = {self.t}^{self.s} is not 1 mod {self.rk}")
        if self.amax < 0:
            raise ValueError("amax must be >= 0")
        if self.amax % 2:
            # An odd square window cuts the d_2 component off at the top row
            # while keeping d_1 d_1, breaking the n = 2 relation there.
            raise ValueError("amax must be even")


def wall(params: WallParams) -> Multicomplex:
    """Wall's multicomplex computing the group homology of the metacyclic
    group, truncated to the square window 0 <= a, b <= amax.

    Rank one everywhere; structure maps (with T_b = sum_{j<s} t^{jb}):
    d_0 multiplies even rows by rk, d_1 alternates T_b / (t^b - 1) by
    column parity, d_2 carries -(t^{bs}-1)/rk off odd rows, everything
    else vanishes.
    """
    rk, s, t, amax = params.rk, params.s, params.t, params.amax

    def geom(beta):
        return sum(t ** (j * beta) for j in range(s))

    ranks = {(a, b): 1 for a in range(amax + 1) for b in range(amax + 1)}
    maps = {}
    for a in range(amax + 1):
        for b in range(amax + 1):
            if b % 2 == 0 and b >= 2:
                maps[(0, a, b)] = Mat(ZZ, 1, 1, [[rk]])
            if a >= 1:
                if b % 2 == 0:
                    beta = b // 2
                    coeff = geom(beta) if a % 2 == 0 else t**beta - 1
                else:
                    beta = (b + 1) // 2
                    coeff = -geom(beta) if a % 2 == 0 else -(t**beta - 1)
                if coeff:
                    maps[(1, a, b)] = Mat(ZZ, 1, 1, [[coeff]])
            if b % 2 == 1 and a >= 2 and b + 1 <= amax:
                beta = (b + 1) // 2
                num = t ** (beta * s) - 1
                assert num % rk == 0, "t^s = 1 mod rk guarantees divisibility"
                coeff = -(num // rk)
                if coeff:
                    maps[(2, a, b)] = Mat(ZZ, 1, 1, [[coeff]])
    return Multicomplex(ZZ, ranks, maps)


@dataclass(frozen=True)
class RandomSpec:
    """Parameters for the seeded random-multicomplex generator."""

    seed: int
    width: int = 4
    height: int = 4
    maxrank: int = 2
    maxd: int = 2
    ring: Ring = ZZ

    def __post_init__(self):
        if self.width < 1 or self.height < 1 or self.maxrank < 1:
            raise ValueError("width, height and maxrank must be >= 1")
        if self.maxd < 0:
            raise ValueError("maxd must be >= 0")


def _random_unimodular(rng, ring, k):
    """A product of elementary operations, det +-1, and its inverse, built
    alongside: row_i += f row_j is undone by col_j -= f col_i, and a row
    swap or negation by the same on columns."""
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    inv = [row[:] for row in rows]
    for _ in range(2 * k * k):
        op = rng.randrange(4)
        if op < 2 and k >= 2:
            i, j = rng.sample(range(k), 2)
            f = rng.randint(-2, 2)
            if f:
                rows[i] = [x + f * y for x, y in zip(rows[i], rows[j])]
                for row in inv:
                    row[j] -= f * row[i]
        elif op == 2 and k >= 2:
            i, j = rng.sample(range(k), 2)
            rows[i], rows[j] = rows[j], rows[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        elif rng.random() < 0.5:
            i = rng.randrange(k)
            rows[i] = [-x for x in rows[i]]
            for row in inv:
                row[i] = -row[i]
    return Mat.from_ints(ring, k, k, rows), Mat.from_ints(ring, k, k, inv)


def random_mcx(spec: RandomSpec) -> Multicomplex:
    """A valid multicomplex generated deterministically from the seed.

    Construction: scatter staircases and isolated generators in the
    window, then conjugate the total differential by a random
    filtration-preserving automorphism.  The automorphism is a product of
    per-bidegree unimodular blocks and single-column unipotent shears
    I + nu with nu: column a0 -> a0 - delta; each shear satisfies
    nu^2 = 0 and nu.d.nu = 0 exactly, so conjugating raises the top
    structure-map index by at most delta, and the shear budget
    sum(delta) <= maxd - 1 keeps the result within spec.maxd.  Validity
    is automatic (square-zero conjugate, reread off the grading) and is
    asserted before returning.
    """
    rng = random.Random(spec.seed)
    ring = spec.ring
    w, h, cap = spec.width, spec.height, spec.maxrank

    ranks: dict = {}
    placements = []  # (kind, data) for the map-entry pass

    def place(a, b):
        k = ranks.get((a, b), 0)
        ranks[(a, b)] = k + 1
        return k

    n_items = rng.randint(2, max(3, (w * h) // 2))
    for _ in range(n_items):
        length = 0
        if spec.maxd >= 1 and w >= 3 and h >= 2 and rng.random() < 0.75:
            lmax = min(w - 1, h, 4)
            if lmax >= 2:
                length = rng.randint(2, lmax)
        if length == 0:
            a, b = rng.randrange(w), rng.randrange(h)
            if ranks.get((a, b), 0) < cap:
                place(a, b)
            continue
        a0 = rng.randrange(w - length)
        b0 = rng.randrange(h - length + 1)
        cells = [(a0 + k, b0 + length - 1 - k) for k in range(length)]
        cells += [(a0 + k, b0 + length - k) for k in range(1, length + 1)]
        if any(ranks.get(cell, 0) >= cap for cell in cells):
            continue
        s_loc = [place(a0 + k, b0 + length - 1 - k) for k in range(length)]
        t_loc = [None] + [place(a0 + k, b0 + length - k) for k in range(1, length + 1)]
        # Arrow scalars are free: every staircase composite lands in an
        # absent cell, so any coefficients satisfy the relations.  Non-unit
        # scalars are what put torsion into the integral pages.
        scal = [rng.choice((1, 1, 1, -1, 2, -2, 3)) for _ in range(2 * length)]
        placements.append((length, a0, b0, s_loc, t_loc, scal))

    entries: dict = {}
    for length, a0, b0, s_loc, t_loc, scal in placements:
        for k in range(1, length + 1):
            src = (a0 + k, b0 + length - k)
            entries.setdefault((1,) + src, []).append(
                (s_loc[k - 1], t_loc[k], scal[2 * k - 2]))
            if k <= length - 1:
                entries.setdefault((0,) + src, []).append(
                    (s_loc[k], t_loc[k], scal[2 * k - 1]))

    maps: dict = {}
    for (i, a, b), triples in entries.items():
        tgt, src = ranks[(a - i, b + i - 1)], ranks[(a, b)]
        grid = [[0] * src for _ in range(tgt)]
        for r, c, v in triples:
            grid[r][c] = v
        maps[(i, a, b)] = Mat.from_ints(ring, tgt, src, grid)

    # Per-bidegree change of basis.
    blocks = {cell: _random_unimodular(rng, ring, ranks[cell]) for cell in sorted(ranks)}
    conjugated = {}
    for (i, a, b), m in sorted(maps.items()):
        left = blocks[(a - i, b + i - 1)][0]
        right = blocks[(a, b)][1]
        conjugated[(i, a, b)] = left.mul(m).mul(right)
    maps = conjugated

    # Column shears, spending the structure-map index budget.
    budget = spec.maxd - 1
    for _ in range(4):
        if budget < 1:
            break
        delta = rng.randint(1, budget)
        pairs = sorted(
            (a, b)
            for (a, b) in ranks
            if (a - delta, b + delta) in ranks
        )
        if not pairs:
            continue
        a0 = rng.choice(sorted({a for a, _ in pairs}))
        nu = {}
        for a, b in pairs:
            if a != a0:
                continue
            tgt, src = ranks[(a0 - delta, b + delta)], ranks[(a0, b)]
            grid = [
                [rng.randint(-2, 2) if rng.random() < 0.6 else 0 for _ in range(src)]
                for _ in range(tgt)
            ]
            block = Mat.from_ints(ring, tgt, src, grid)
            if not block.is_zero():
                nu[b] = block
        if not nu:
            continue
        updates: dict = {}

        def bump(key, term):
            cur = updates.get(key)
            updates[key] = term if cur is None else cur.add(term)

        for (i, a, b), m in sorted(maps.items()):
            tb = b + i - 1
            if a - i == a0 and tb in nu:
                bump((i + delta, a, b), nu[tb].mul(m))
        for b, block in sorted(nu.items()):
            src_cell = (a0 - delta, b + delta)
            for (i, a, bb), m in sorted(maps.items()):
                if (a, bb) == src_cell:
                    bump((i + delta, a0, b), m.mul(block).neg())
        for key, term in updates.items():
            cur = maps.get(key)
            total = term if cur is None else cur.add(term)
            if total.is_zero():
                maps.pop(key, None)
            else:
                maps[key] = total
        budget -= delta

    result = Multicomplex(ring, ranks, maps)
    bad = result.validate()
    if bad:
        raise AssertionError(f"random generator produced an invalid multicomplex: {bad[:3]}")
    return result
