"""Exact scalar arithmetic over the supported ground rings.

Three rings are available: the rationals ``QQ``, the integers ``ZZ`` and
prime fields ``GF(p)`` with p < 2**31.  Scalars are plain Python values:
`fractions.Fraction` over QQ (always reduced, positive denominator),
`int` over ZZ, and `int` residues in ``[0, p)`` over GF(p).  All
arithmetic is exact; there is no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

_MR_BASES = (2, 3, 5, 7)  # deterministic Miller-Rabin below 3 215 031 751

# Fractions are immutable, so QQ hands out one shared zero and one.
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


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
    """A ground ring: kind 'Q' (rationals), 'Z' (integers) or 'F' (prime field)."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
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
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Ring is immutable")

    # -- predicates -----------------------------------------------------

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    # -- element handling ------------------------------------------------

    def normalize(self, v):
        """Coerce v (int, Fraction, or same-ring scalar) to this ring's form."""
        if self.kind == "Q":
            return v if type(v) is Fraction else Fraction(v)
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

    def one(self):
        return _Q_ONE if self.kind == "Q" else 1

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "F" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "F" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "F" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "F" else -a

    def invert(self, a):
        """Multiplicative inverse; defined for units only."""
        if self.kind == "F":
            return pow(a, -1, self.p)
        if self.kind == "Q":
            return 1 / a
        if a in (1, -1):
            return a
        raise ValueError(f"{a} is not a unit in Z")

    # -- text form --------------------------------------------------------

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

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Ring) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"GF({self.p})" if self.kind == "F" else {"Q": "QQ", "Z": "ZZ"}[self.kind]

    def __str__(self):
        return f"F {self.p}" if self.kind == "F" else self.kind


QQ = Ring("Q")
ZZ = Ring("Z")


def GF(p: int) -> Ring:
    return Ring("F", p)
