"""Exact scalar arithmetic over the supported ground rings.

Three rings are available: the rationals ``QQ``, the integers ``ZZ`` and
prime fields ``GF(p)`` with p < 2**31.  Scalars are plain Python values:
`fractions.Fraction` over QQ (always reduced, positive denominator),
`int` over ZZ, and `int` residues in ``[0, p)`` over GF(p).  All
arithmetic is exact; there is no floating point anywhere.

This module is the one place that decides a ring's scalar form, and the
one place that divides.  The linear algebra computes on integer rows:
`Ring.int_rows` puts rows over one common denominator (over ZZ and GF(p)
they are integers already), and `Ring.scalars`, `Ring.dots` and
`Ring.quotients` take integer rows back to canonical scalars, a whole
row or matrix at a time.  A `Mat` stores integer rows over one
denominator, in the form `Ring.stored` fixes, and modules are spanned
by integer rows and stay integer rows (`Ring.primitive`,
`Ring.int_dots`): over QQ, Fractions appear only in module `gens`, a
`Mat`'s `data` view, the output of `solve` and of a quotient's `reduce`,
and `Delta` matrices.  The elimination's steps are here too, for every
ring: `Ring.clear` clears one position of a set of vectors (a pivot
and `Ring.eliminate`, mod p or fraction-free over QQ, over a field;
Euclid across the row over ZZ) and `Ring.reduce_at` reduces the vectors
above a pivot, which is all `mcss.linalg`'s echelon loop asks of a ring;
over ZZ a step touches only the pivot vector's nonzero entries, at or
past its pivot.  Rings are interned, so they compare by identity.

It is also where a ring's name is read: `parse_ring` is the one grammar,
Q, Z or F <p>, of an MCX file's `ring` line and of the `--ring` option.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul

_MR_BASES = (2, 3, 5, 7)  # deterministic Miller-Rabin below 3 215 031 751

# Fractions are immutable, so QQ hands out one shared zero.
_Q_ZERO = Fraction(0)

# (kind, p) -> the one Ring instance.
_RINGS: dict = {}


def is_prime(n: int) -> bool:
    """Deterministic primality test, valid for every n < 2**31."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Ring:
    """A ground ring: kind 'Q' (rationals), 'Z' (integers) or 'F' (prime field).

    Interned: one instance per (kind, p), so equal rings are identical.
    """

    __slots__ = ("kind", "p")

    def __new__(cls, kind: str, p: int | None = None):
        if kind not in ("Q", "Z", "F"):
            raise ValueError(f"unknown ring kind {kind!r}")
        if kind == "F":
            if p is None or not isinstance(p, int):
                raise ValueError("prime field needs an integer modulus")
            if p >= 2**31:
                raise ValueError(f"modulus {p} too large (must be < 2^31)")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        elif p is not None:
            raise ValueError("modulus only makes sense for a prime field")
        ring = _RINGS.get((kind, p))
        if ring is None:
            ring = _RINGS[(kind, p)] = object.__new__(cls)
            object.__setattr__(ring, "kind", kind)
            object.__setattr__(ring, "p", p)
        return ring

    def __setattr__(self, name, value):
        raise AttributeError("Ring is immutable")

    def __reduce__(self):  # copies and unpickled rings are interned too
        return Ring, (self.kind, self.p)

    # -- predicates -----------------------------------------------------

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    # -- element handling ------------------------------------------------

    def normalize(self, v):
        """Coerce v (int, Fraction, or same-ring scalar) to this ring's form."""
        if self.kind == "Q":
            return v if type(v) is Fraction else Fraction(v)
        if type(v) is int:  # the common case, spared the Fraction test (an ABC check)
            return v % self.p if self.p else v
        if self.kind == "F":
            if isinstance(v, Fraction):
                if v.denominator % self.p == 0:
                    raise ValueError(f"denominator of {v} not invertible mod {self.p}")
                return v.numerator * pow(v.denominator, -1, self.p) % self.p
            return v % self.p
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise ValueError(f"{v} is not an integer")
            return v.numerator
        return int(v)

    def zero(self):
        return _Q_ZERO if self.kind == "Q" else 0

    def neg(self, a):
        return (-a) % self.p if self.kind == "F" else -a

    # -- rows: integer form in, canonical scalars out ------------------

    def int_rows(self, rows):
        """(ints, den) with ints / den == rows; over ZZ and GF(p), (rows, 1)."""
        if self.kind != "Q":
            return rows, 1
        den = lcm(*{v.denominator for row in rows for v in row})
        if den == 1:
            return [[v.numerator for v in row] for row in rows], 1
        return [[v.numerator * (den // v.denominator) for v in row] for row in rows], den

    def scalars(self, row, den=1):
        """Canonical scalars row / den of an integer row (den is 1 unless over QQ)."""
        if self.p:
            p = self.p
            return [x % p for x in row]
        if self.kind == "Q":
            return [Fraction(x, den) if x else _Q_ZERO for x in row]
        return row

    def dots(self, rows, vec, den=1):
        """Canonical scalars (row . vec) / den of integer rows and an integer vector."""
        if self.kind == "Q":
            return [Fraction(s, den) if (s := sum(map(mul, row, vec))) else _Q_ZERO
                    for row in rows]
        return self.int_dots(rows, vec)

    def int_dots(self, rows, vec):
        """Integer dot products row . vec of integer rows and vector; mod p over GF(p)."""
        if p := self.p:
            return [sum(map(mul, row, vec)) % p for row in rows]
        return [sum(map(mul, row, vec)) for row in rows]

    def primitive(self, rows, pivots):
        """Echelon rows, each known up to scale, in stored form: over QQ each
        row's primitive multiple with a positive pivot; otherwise the rows."""
        if self.kind != "Q":
            return rows
        gs = [gcd(*row) if row[c] > 0 else -gcd(*row) for row, c in zip(rows, pivots)]
        return [row if g == 1 else [x // g for x in row] for row, g in zip(rows, gs)]

    def stored(self, rows, den=1):
        """(rows, den) in a `Mat`'s stored form, for the integer rows / den (den
        is 1 unless over QQ): residues in [0, p) over GF(p), over QQ the least den."""
        if p := self.p:
            return [[x % p for x in row] for row in rows], 1
        if den == 1:
            return rows, 1
        g = gcd(den, *chain.from_iterable(rows))
        return ([[x // g for x in row] for row in rows], den // g) if g > 1 else (rows, den)

    def quotients(self, rows, dens):
        """rows[i] / dens[i] as canonical scalars; over ZZ and GF(p) the rows, dens 1."""
        if self.kind != "Q":
            return rows
        return [[Fraction(x, den) if x else _Q_ZERO for x in row] for row, den in zip(rows, dens)]

    def clear(self, vecs, active, c):
        """Clear position c of the integer vectors vecs[i], i in active (those
        nonzero at c, in order, each zero before c), on all but one; return
        that one's index.

        Vectors are replaced, never updated in place.  Over a field the
        first active vector is the pivot, scaled to 1 over GF(p), and
        `eliminate` clears the others.  Over ZZ, Euclid across the row
        (Havas-Majewski-Matthews, Exp. Math. 1998): the active vector of
        smallest |entry| is subtracted, with nearest-integer multipliers,
        from the others, until one is left, whose entry is made positive.
        Remainders at most half the pivot keep the entries small; one
        active vector costs one scan.  A round subtracts on copies, at its
        pivot vector's nonzero entries only.

        >>> v = [[4, 1], [6, 0]]
        >>> ZZ.clear(v, [0, 1], 0), v
        (1, [[0, 3], [2, -1]])
        """
        k = active[0]
        if self.kind != "Z":
            vp = vecs[k]
            if (p := self.p) and (inv := pow(vp[c], -1, p)) != 1:
                vp = vecs[k] = [x * inv % p for x in vp]
            eliminate = self.eliminate
            for i in active[1:]:
                vecs[i] = eliminate(vecs[i], vp, c)
            return k
        while len(active) > 1:
            a = vecs[k][c]
            for j in active:
                if abs(vecs[j][c]) < abs(a):
                    k, a = j, vecs[j][c]
            vk = vecs[k]
            support = [i for i in range(c, len(vk)) if vk[i]]
            left = [k]
            for j in active:
                if j == k:
                    continue
                vj = vecs[j] = list(vecs[j])
                q, rem = divmod(vj[c], a)
                if 2 * abs(rem) > abs(a):
                    q += 1
                    rem -= a
                for i in support:
                    vj[i] -= q * vk[i]
                if rem:
                    left.append(j)
            active = left
        if vecs[k][c] < 0:
            vecs[k] = [-u for u in vecs[k]]
        return k

    def reduce_at(self, vecs, lo, i, c):
        """Reduce the vectors vecs[lo:i] at c by the pivot vector vecs[i] of
        `clear`: cleared over a field (`eliminate`), brought into
        [0, vecs[i][c]) over ZZ on copies, at the pivot vector's nonzero
        entries only, found once it is needed."""
        pv = vecs[i]
        if self.kind != "Z":
            for j in range(lo, i):
                if vecs[j][c]:
                    vecs[j] = self.eliminate(vecs[j], pv, c)
            return
        h, support = pv[c], None
        for j in range(lo, i):
            if q := vecs[j][c] // h:
                if support is None:
                    support = [k for k in range(c, len(pv)) if pv[k]]
                vj = vecs[j] = list(vecs[j])
                for k in support:
                    vj[k] -= q * pv[k]

    def eliminate(self, row, rp, c):
        """A new integer row: row with its entry at c cleared by the pivot row rp.

        Over GF(p), where rp[c] is 1, (row - row[c] rp) mod p; over QQ the
        fraction-free rp[c] row - row[c] rp divided by its content.

        >>> GF(5).eliminate([3, 1, 4], [1, 2, 0], 0)
        [0, 0, 4]
        >>> QQ.eliminate([3, 1, 4], [2, 2, 0], 0)
        [0, -1, 2]
        """
        f = row[c]
        if p := self.p:
            return [(x - f * y) % p for x, y in zip(row, rp)]
        pv = rp[c]
        new = [x * pv - f * y for x, y in zip(row, rp)]
        g = gcd(*new)
        return [x // g for x in new] if g > 1 else new

    # -- text form --------------------------------------------------------

    @property
    def symbol(self) -> str:  # Q, Z or F<p>, as in group notation
        return f"F{self.p}" if self.p else self.kind

    def format_scalar(self, v) -> str:
        if self.kind == "Q" and v.denominator != 1:
            return f"{v.numerator}/{v.denominator}"
        return str(int(v))

    def parse_scalar(self, token: str):
        """Parse an MCX entry token: an integer, or n/d over Q."""
        if "/" in token:
            if self.kind != "Q":
                raise ValueError(f"rational entry {token!r} not allowed over {self}")
            num_s, _, den_s = token.partition("/")
            num, den = int(num_s), int(den_s)
            if den == 0:
                raise ValueError(f"zero denominator in {token!r}")
            return Fraction(num, den)
        return self.normalize(int(token))

    def __repr__(self):
        return f"GF({self.p})" if self.kind == "F" else {"Q": "QQ", "Z": "ZZ"}[self.kind]

    def __str__(self):
        return f"F {self.p}" if self.kind == "F" else self.kind


QQ = Ring("Q")
ZZ = Ring("Z")


def GF(p: int) -> Ring:
    return Ring("F", p)


def parse_ring(tokens) -> Ring:
    """The ring named by `tokens`, exactly Q, Z or F <p>, as words or as one
    token such as "F 97"; any other name, or a p that GF refuses, raises ValueError."""
    name = " ".join(" ".join(tokens).split())
    if name in ("Q", "Z"):
        return Ring(name)
    kind, _, p = name.partition(" ")
    if kind != "F" or not p.isdecimal():
        raise ValueError(f"unknown ring {name!r} (expected Q, Z or F <p>)")
    try:
        return GF(int(p))
    except ValueError as exc:
        raise ValueError(f"bad ring {name!r}: {exc}") from None
