"""Bigraded modules carrying structure maps d_i of bidegree (-i, i-1).

A multicomplex stores a finite family of per-bidegree ranks together with
the matrices of each d_i restricted to a source bidegree; absent entries
are zero.  Validation checks every relation sum_{i+j=n} d_i d_j = 0 as an
exact matrix identity, per source bidegree; the engines and `totalize`
refuse a multicomplex that fails one with `RelationError`.  Only the
unsigned relation convention is supported; the alternating-sign variant
is rejected by validation, not converted.
"""

from __future__ import annotations

from functools import reduce
from math import lcm
from operator import add, mul
from typing import NamedTuple

from .linalg import Mat
from .rings import Ring


class RelationViolation(NamedTuple):
    n: int
    a: int
    b: int
    composite: Mat

    def __str__(self):
        return f"n={self.n} at ({self.a},{self.b}): nonzero composite {self.composite!r}"


class RelationError(ValueError):
    """A multicomplex refused for failed relations: `.violations` is what `validate()` returns."""

    def __init__(self, violations):
        super().__init__(f"invalid multicomplex: {violations[0]}")
        self.violations = violations


class Multicomplex:
    """Finitely supported bigraded module with structure maps d_i.

    ranks: {(a, b): positive rank}; maps: {(i, a, b): Mat of d_i on C_{a,b}},
    where the matrix has ranks[(a-i, b+i-1)] rows and ranks[(a, b)] columns.
    All-zero matrices are dropped at construction so the stored form is
    canonical.
    """

    __slots__ = ("ring", "ranks", "maps", "maxd", "_violations")

    def __init__(self, ring: Ring, ranks: dict, maps: dict):
        clean_ranks = {}
        for (a, b), r in ranks.items():
            if not isinstance(r, int) or r < 1:
                raise ValueError(f"rank at ({a},{b}) must be a positive integer")
            clean_ranks[(int(a), int(b))] = r
        clean_maps = {}
        maxd = 0
        for (i, a, b), m in maps.items():
            if i < 0:
                raise ValueError("structure map index must be >= 0")
            src = clean_ranks.get((a, b))
            if src is None:
                raise ValueError(f"map d_{i} declared on absent module ({a},{b})")
            tgt = clean_ranks.get((a - i, b + i - 1), 0)
            if m.ring != ring:
                raise ValueError("map ring differs from multicomplex ring")
            if (m.rows, m.cols) != (tgt, src):
                raise ValueError(
                    f"d_{i} on ({a},{b}) must be {tgt}x{src}, got {m.rows}x{m.cols}"
                )
            if m.is_zero():
                continue
            clean_maps[(i, a, b)] = m
            if i > maxd:
                maxd = i
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "ranks", clean_ranks)
        object.__setattr__(self, "maps", clean_maps)
        object.__setattr__(self, "maxd", maxd)
        object.__setattr__(self, "_violations", None)

    def __setattr__(self, name, value):
        raise AttributeError("Multicomplex is immutable")

    def rank(self, a: int, b: int) -> int:
        return self.ranks.get((a, b), 0)

    def dmap(self, i: int, a: int, b: int) -> Mat | None:
        """Matrix of d_i on C_{a,b}, or None when it is zero/absent."""
        return self.maps.get((i, a, b))

    @property
    def support(self):
        return sorted(self.ranks)

    def validate(self) -> list[RelationViolation]:
        """Violated relations sum_{i+j=n} d_i d_j = 0, by source (a, b), then n.

        Relation n at (a, b) sums over the stored d_j out of (a, b) and d_i
        out of its target.  Computed once; each call returns a new list.
        """
        if self._violations is None:
            out = {}  # source cell -> [(j, d_j)], ascending j
            for i, a, b in sorted(self.maps):
                out.setdefault((a, b), []).append((i, self.maps[(i, a, b)]))
            bad = []
            for (a, b), firsts in sorted(out.items()):
                terms = {}  # n -> [(d_i, d_j)], ascending j
                for j, first in firsts:
                    for i, second in out.get((a - j, b + j - 1), ()):
                        terms.setdefault(i + j, []).append((second, first))
                bad += [RelationViolation(n, a, b, reduce(Mat.add, [s.mul(f) for s, f in pairs]))
                        for n, pairs in sorted(terms.items()) if not vanishes(self.ring, pairs)]
            object.__setattr__(self, "_violations", bad)
        return list(self._violations)

    def __eq__(self, other):
        return (
            isinstance(other, Multicomplex)
            and self.ring == other.ring
            and self.ranks == other.ranks
            and self.maps == other.maps
        )

    def __repr__(self):
        return (
            f"<Multicomplex over {self.ring!r}: {len(self.ranks)} modules, "
            f"{len(self.maps)} maps, maxd={self.maxd}>"
        )


def vanishes(ring: Ring, pairs) -> bool:
    """Whether sum second * first over the Mat pairs is zero: the pairs'
    integer products, scaled to one denominator, summed entrywise."""
    den = lcm(*[s.den * f.den for s, f in pairs])
    total = [0] * (pairs[0][0].rows * pairs[0][1].cols)
    for s, f in pairs:
        k, fcols = den // (s.den * f.den), list(zip(*f.ints))
        total = list(map(add, total, [k * sum(map(mul, r, c)) for r in s.ints for c in fcols]))
    return not any(ring.scalars(total))


def rebase(c: Multicomplex, ring: Ring) -> Multicomplex:
    """Reinterpret an integer-entried multicomplex over another ring.

    Residues over a prime field are read as their integer representatives.
    Refused (ValueError) if an entry cannot be carried exactly: a rational
    with denominator divisible by p, or a non-integer when targeting ZZ.
    """
    if ring == c.ring:
        return c
    maps = {}
    for key, m in c.maps.items():
        maps[key] = Mat(ring, m.rows, m.cols, m.data)
    return Multicomplex(ring, dict(c.ranks), maps)
