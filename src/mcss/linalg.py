"""Exact dense linear algebra over QQ, GF(p) and ZZ.

Solve, kernel, image, subquotients and integer normal forms, all
deterministic: canonical column-echelon (fields) and column Hermite
(integers) forms make equal subspaces/lattices structurally equal, and
particular solutions are pinned (zero at the free columns over a field,
Hermite-reduced there over the integers).

Matrices are dense row-major integer lists, at the scale this engine
targets blocks of at most a few hundred.  Arithmetic runs on them, over a
field whole rows at a time, over ZZ on the pivot vector's nonzero
entries only, and `mcss.rings` turns them into scalars: a `Mat` stores
only its rows over one common denominator, and `Mat.data` reads them as
scalars.  Over QQ, elimination hands its rows back as integers: reduced
row i is rows[i] / rows[i][pivots[i]].  Modules are spanned by integer rows and live as
integer rows, over QQ primitive ones, so no module operation builds a
Fraction: they appear only in `gens`, `Mat.data`, the output of `solve`
and `QuotientPresentation.reduce`, and `Delta` matrices.

Every elimination, over every ring, is one echelon loop and then one
reduction, and a caller reduces only the block it reads: `_echelon`,
which can snapshot the vectors not yet pivoted, and `_reduce`.  The ring
supplies their steps (`Ring.clear`, `Ring.reduce_at`): a pivot and
fraction-free or mod-p row steps over a field, Euclid across the row and
floor quotients over ZZ.  No elimination builds a transform of its own:
a caller that needs one eliminates the columns [col_j | e_j]
(`_with_identity`) and reads it off the carried tails, so a
kernel is one `_kernel_image` of those rows (Cohen 1993, 2.3-2.4), and a
solve of m.x = b one more: that of [-b | m], which holds the solutions
as its kernel vectors with first coordinate 1.  The Smith form has its
own loop, whose U rides along the same way and whose row operations
also carry a ZZ quotient's generators.
"""

from __future__ import annotations

from bisect import bisect_left
from math import lcm
from operator import getitem

from .rings import Ring, ZZ


class InclusionError(ValueError):
    """A claimed submodule inclusion does not hold."""


class MembershipError(ValueError):
    """An element lies outside the submodule it was claimed to be in."""


def _xgcd(a: int, b: int):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g = x*a + y*b."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


# ---------------------------------------------------------------------------
# matrices


class Mat:
    """Immutable dense matrix over one of the three rings, in one stored form.

    Integer rows `ints` over the least denominator `den` (1 over ZZ, and
    over GF(p), whose rows hold residues): entry (i, j) is ints[i][j] / den.
    `data` is a view: the stored rows over ZZ and GF(p), Fractions over QQ.

    >>> from fractions import Fraction
    >>> from mcss.rings import QQ
    >>> m = Mat(QQ, 1, 2, [[Fraction(1, 2), Fraction(1, 3)]])
    >>> m.ints, m.den, m.data
    ([[3, 2]], 6, [[Fraction(1, 2), Fraction(1, 3)]])
    """

    __slots__ = ("ring", "rows", "cols", "ints", "den")

    def __init__(self, ring: Ring, rows: int, cols: int, entries):
        norm = ring.normalize
        data = [[norm(v) for v in row] for row in entries]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError(f"entry grid does not match shape {rows}x{cols}")
        self._set(ring, rows, cols, *ring.int_rows(data))

    def _set(self, ring, rows, cols, ints, den):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Mat is immutable")

    @classmethod
    def from_ints(cls, ring, rows, cols, ints, den=1):
        """The matrix ints / den (den is 1 unless over QQ); rows already in the
        stored form are kept, not copied: never change them."""
        m = object.__new__(cls)
        m._set(ring, rows, cols, *ring.stored(ints, den))
        return m

    @property
    def data(self):
        """The entries as canonical scalars; over ZZ and GF(p) the stored rows themselves."""
        return self.ring.quotients(self.ints, [self.den] * self.rows)

    def matvec(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        (vint,), vden = self.ring.int_rows((v,))
        return self.ring.dots(self.ints, vint, self.den * vden)

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows or self.ring is not other.ring:
            raise ValueError("shape or ring mismatch in product")
        ring = self.ring
        ocols = [[row[j] for row in other.ints] for j in range(other.cols)]
        return Mat.from_ints(ring, self.rows, other.cols,
                             [ring.int_dots(ocols, row) for row in self.ints], self.den * other.den)

    def add(self, other: "Mat") -> "Mat":
        if (self.rows, self.cols) != (other.rows, other.cols) or self.ring is not other.ring:
            raise ValueError("shape or ring mismatch in sum")
        den = lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        ints = [[f * x + g * y for x, y in zip(a, b)] for a, b in zip(self.ints, other.ints)]
        return Mat.from_ints(self.ring, self.rows, self.cols, ints, den)

    def neg(self) -> "Mat":
        ints = [[-x for x in row] for row in self.ints]
        return Mat.from_ints(self.ring, self.rows, self.cols, ints, self.den)

    def is_zero(self) -> bool:
        return not any(map(any, self.ints))

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.ring is other.ring
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.ints == other.ints
        )

    def __repr__(self):
        body = "; ".join(" ".join(self.ring.format_scalar(v) for v in row) for row in self.data)
        return f"Mat({self.ring!r}, {self.rows}x{self.cols}, [{body}])"


def _over_common_pivot(rows, pivots):
    """(den, pivot rows rescaled to reduced row i times den), den the pivots' lcm."""
    den = lcm(*map(getitem, rows, pivots))
    return den, [row if row[c] == den else [den // row[c] * x for x in row]
                 for row, c in zip(rows, pivots)]


# ---------------------------------------------------------------------------
# elimination cores


def _echelon(ring, vecs, limit, snaps=None):
    """Echelon form (vecs, pivots) of integer vectors, eliminated at positions < limit.

    Position c left to right: of the vectors from len(pivots) on, those
    nonzero at c are cleared there on all but one by the ring
    (`Ring.clear`), which becomes the next pivot vector and moves up to
    index len(pivots).  A pivot vector is never changed once it is chosen.
    So pivots strictly increase, and the vectors past them vanish at every
    position < limit.  Over GF(p) a pivot is 1, over ZZ positive; over QQ
    the vectors stay integers, fraction-free, each known up to a scalar.
    Positions from limit on are carried along: for a transform, pass
    `_with_identity(cols)`, whose tails past limit then are the transform
    (unimodular over ZZ).  `_reduce` gives the reduced form.

    The vectors are integer rows as `SubmodulePresentation.span` reads
    them.  The outer list is copied; vectors are replaced, never updated
    in place, so the input's vectors and a snapshot keep theirs.

    ``snaps``, a dict keyed by positions in [0, limit], is filled with
    (len(pivots), vecs[len(pivots):]) as they stand before that position
    is cleared.  The steps so far are invertible and leave the pivot
    vectors with distinct leading positions < c, so the snapshot's vectors
    span the combinations of the input that vanish at every position < c;
    with a transform, their tails span the kernel of the matrix cut to
    positions < c.
    """
    vecs = list(vecs)
    nvecs = len(vecs)
    clear = ring.clear
    pivots = []
    npiv = 0
    for c in range(limit):
        if snaps is not None and c in snaps:
            snaps[c] = (npiv, vecs[npiv:])
        # Plain loops: at the sizes of most calls (a few vectors) they
        # cost less than a comprehension.
        active = []
        for i in range(npiv, nvecs):
            if vecs[i][c]:
                active.append(i)
        if not active:
            continue
        k = clear(vecs, active, c)
        if k != npiv:
            vecs[npiv], vecs[k] = vecs[k], vecs[npiv]
        pivots.append(c)
        npiv += 1
        if npiv == nvecs:
            break
    if snaps is not None:
        for c, snap in snaps.items():
            if snap is None:
                snaps[c] = (npiv, vecs[npiv:])
    return vecs, pivots


def _reduce(ring, vecs, pivots, lo=0):
    """Reduce each pivot position of `_echelon` in the pivot vectors above
    it (`Ring.reduce_at`), pivot by pivot in increasing order, over vectors
    lo.. only: these become the reduced form of the pivot vectors from lo
    on (reduced row echelon over a field, Hermite over ZZ)."""
    reduce_at = ring.reduce_at
    for i in range(lo + 1, len(pivots)):
        reduce_at(vecs, lo, i, pivots[i])
    return vecs


def _with_identity(cols, scale=1):
    """The columns [col_j | scale e_j]: eliminated with the columns, the
    tail past col_j's length carries the transform, times scale."""
    n = len(cols)
    return [[*col, *[0] * j, scale, *[0] * (n - j - 1)] for j, col in enumerate(cols)]


def _coords_in_hnf(cols, pivot_rows, vec):
    """Integer coordinates of vec in an HNF column basis, or None; each
    column updates a copy of vec only at the column's nonzero entries."""
    residual = list(vec)
    y = [0] * len(cols)
    for i, r in enumerate(pivot_rows):
        t = residual[r]
        if not t:
            continue
        col = cols[i]
        piv = col[r]
        if t % piv:
            return None
        q = y[i] = t // piv
        for j in range(r, len(col)):
            if col[j]:
                residual[j] -= q * col[j]
    if any(residual):
        return None
    return y


# ---------------------------------------------------------------------------
# submodules


class SubmodulePresentation:
    """A subspace (field) or lattice (ZZ) inside a free ambient module.

    The canonical column basis (column echelon over a field, column
    Hermite form over ZZ) is stored as integer `rows`, over QQ each basis
    vector's primitive multiple with a positive pivot, so two presentations
    of the same submodule compare equal.  `gens` is that basis as scalars.
    """

    __slots__ = ("ring", "ambient_rank", "rows", "pivots", "_gens")

    def __init__(self, ring, ambient_rank, rows, pivots, _canonical=False):
        if not _canonical:
            raise ValueError("use SubmodulePresentation.span to construct")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "_gens", None)

    def __setattr__(self, name, value):
        raise AttributeError("SubmodulePresentation is immutable")

    @property
    def gens(self):  # each row over its pivot entry, built when first read
        if self._gens is None:
            gens = self.ring.quotients(self.rows, map(getitem, self.rows, self.pivots))
            object.__setattr__(self, "_gens", tuple(map(tuple, gens)))
        return self._gens

    @classmethod
    def span(cls, ring, ambient_rank, columns):
        """The submodule spanned by integer `columns`, each of length `ambient_rank`.

        Over ZZ the columns are the generators, over QQ any nonzero
        multiple of each, and over GF(p) residues in [0, p).

        >>> from mcss.rings import QQ
        >>> a = SubmodulePresentation.span(QQ, 2, [[2, 4]])
        >>> a == SubmodulePresentation.span(QQ, 2, [[1, 2]]), a.rows
        (True, ((1, 2),))
        """
        cols = []
        for c in columns:
            if len(c) != ambient_rank:
                raise ValueError("generator length does not match ambient rank")
            if any(c):
                cols.append(c)
        vecs, pivots = _echelon(ring, cols, ambient_rank)
        rows = ring.primitive(_reduce(ring, vecs, pivots)[:len(pivots)], pivots)
        return cls(ring, ambient_rank, rows, pivots, _canonical=True)

    @classmethod
    def zero(cls, ring, ambient_rank):
        return cls(ring, ambient_rank, [], [], _canonical=True)

    @classmethod
    def full(cls, ring, ambient_rank):
        rows = [[int(i == j) for i in range(ambient_rank)] for j in range(ambient_rank)]
        return cls(ring, ambient_rank, rows, range(ambient_rank), _canonical=True)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def prefix(self, n: int) -> "SubmodulePresentation":
        """The projection onto the first n coordinates.

        In the canonical form a generator whose pivot lies past n is zero
        there, and the others, cut, are again in canonical form: no
        elimination is needed, only (over QQ) a rescaling.
        """
        k = bisect_left(self.pivots, n)
        rows = self.ring.primitive([g[:n] for g in self.rows[:k]], self.pivots[:k])
        return SubmodulePresentation(self.ring, n, rows, self.pivots[:k], _canonical=True)

    def direct_sum(self, other: "SubmodulePresentation") -> "SubmodulePresentation":
        """self + other on the concatenated coordinates, self's first.

        The two canonical forms, padded with zeros, are the canonical form
        of the sum: no elimination is needed.
        """
        n, m = self.ambient_rank, other.ambient_rank
        return SubmodulePresentation(
            self.ring, n + m,
            [g + (0,) * m for g in self.rows] + [(0,) * n + g for g in other.rows],
            self.pivots + tuple(n + c for c in other.pivots), _canonical=True)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, SubmodulePresentation)
            and self.ring is other.ring
            and self.ambient_rank == other.ambient_rank
            and self.rows == other.rows
        )

    def __hash__(self):
        # The pivots follow from the canonical rows and are shorter to
        # hash; __eq__ settles collisions on the integer rows.
        return hash((self.ring, self.ambient_rank, self.pivots))

    def __repr__(self):
        return f"<submodule rank {self.rank} of {self.ring!r}^{self.ambient_rank}>"


# ---------------------------------------------------------------------------
# kernel / solve / image


def kernel(m: Mat) -> SubmodulePresentation:
    """The solution submodule {x : m.x = 0}; over ZZ the full integer kernel.

    One `_kernel_image` of the rows [column j of m | e_j]: the stored
    columns are m times its denominator, which spans ignore.
    """
    if not m.cols:
        return SubmodulePresentation.zero(m.ring, 0)
    cols = [[row[j] for row in m.ints] for j in range(m.cols)]
    return _kernel_image(m.ring, m.rows, _with_identity(cols))


def _kernel_image(ring, nsys, rows):
    """L(ker A) from one integer row [A[u] | L[u]] per unknown u, A nsys wide.

    One elimination (Cohen 1993, 2.3-2.4): the echelon vectors with no
    pivot in A's part vanish there and span L(ker A); reduced among
    themselves and cut to L's part they are its canonical form.  At least
    one row, each as `span` reads it.
    """
    width = len(rows[0])
    echelon, pivots = _echelon(ring, rows, width)
    k = bisect_left(pivots, nsys)
    _reduce(ring, echelon, pivots, k)
    pivots = [c - nsys for c in pivots[k:]]
    cut = ring.primitive([row[nsys:] for row in echelon[k:k + len(pivots)]], pivots)
    return SubmodulePresentation(ring, width - nsys, cut, pivots, _canonical=True)


def solve(m: Mat, b) -> list | None:
    """A deterministic particular solution of m.x = b, or None.

    One `_kernel_image` of the unknowns (t, x_{c-1}, ..., x_0), with the
    rows [-b | e_t] and [column j of m | e_j], m's columns in reverse: a
    kernel vector with t = 1 is a solution.  Reversed, the canonical
    kernel's pivots past t are m's free columns (a column is free when a
    kernel vector ends there), and its first row, when its pivot is t,
    is reduced at them: x is zero there over a field (the reduced-echelon
    solution), in [0, h) over ZZ, h the pivot entry of the kernel row of
    that column.  Over ZZ a solution exists iff t's pivot entry is 1.

    >>> from mcss.rings import GF
    >>> solve(Mat(GF(2), 2, 2, [[1, 1], [0, 0]]), [1, 0])
    [1, 0]
    >>> solve(Mat(ZZ, 1, 2, [[2, 3]]), [1])
    [-1, 1]
    >>> solve(Mat(ZZ, 1, 1, [[2]]), [3]) is None
    True
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    ring = m.ring
    # m = ints / den, b = bints / bden: ints . y = t den bints, x = y / (t bden).
    (bints,), bden = ring.int_rows(([ring.normalize(v) for v in b],))
    cols = [[ring.neg(m.den * v) for v in bints]]
    cols += [[row[j] for row in m.ints] for j in reversed(range(m.cols))]
    k = _kernel_image(ring, m.rows, _with_identity(cols))
    if not k.pivots or k.pivots[0] or (not ring.is_field and k.rows[0][0] != 1):
        return None
    row = k.rows[0]
    return ring.quotients([list(row[:0:-1])], [row[0] * bden])[0]


def image(m: Mat) -> SubmodulePresentation:
    """Canonical presentation of the column span / column lattice of m."""
    return SubmodulePresentation.span(m.ring, m.rows, list(zip(*m.ints)))


# ---------------------------------------------------------------------------
# subquotients


class QuotientPresentation:
    """A subquotient z/b with canonical generator lifts.

    ``invariants`` classifies the quotient uniformly across rings: each
    entry d describes a cyclic summand (d = 0 free, d > 1 torsion); over a
    field every entry is 0 and their number is the dimension.  ``gens``
    holds one ambient lift per invariant.  ``reduce`` maps an ambient
    element of z to its canonical coordinate tuple (torsion coordinates in
    [0, d), free coordinates exact).
    """

    __slots__ = ("ring", "ambient_rank", "invariants", "gens", "_data")

    def __init__(self, ring, ambient_rank, invariants, gens, data):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "invariants", tuple(invariants))
        object.__setattr__(self, "gens", tuple(tuple(g) for g in gens))
        object.__setattr__(self, "_data", data)

    def __setattr__(self, name, value):
        raise AttributeError("QuotientPresentation is immutable")

    def canon(self, coords):
        """Canonicalize a raw coordinate tuple (reduce torsion entries)."""
        norm = self.ring.normalize
        return tuple(norm(c) % d if d else norm(c) for c, d in zip(coords, self.invariants))

    def reduce(self, vec):
        """Canonical coordinates of an ambient element of z in the quotient."""
        if len(vec) != self.ambient_rank:
            raise ValueError("vector length mismatch")
        ring = self.ring
        if ring.is_field:
            t_rows, ngens, den = self._data
            (vint,), vden = ring.int_rows((vec,))
            u = ring.dots(t_rows, vint, den * vden)
            if any(u[ngens:]):
                raise MembershipError("element lies outside the submodule z")
            return tuple(u[:ngens])
        zgens, zpivots, u_rows = self._data
        y = _coords_in_hnf(zgens, zpivots, vec)
        if y is None:
            raise MembershipError("element lies outside the lattice z")
        w = y if u_rows is None else ring.int_dots(u_rows, y)  # None: U is the identity
        return tuple(v % d if d else v for v, d in zip(w, self.invariants))

    def __repr__(self):
        return f"<quotient {list(self.invariants)} in {self.ring!r}^{self.ambient_rank}>"


def subquotient(z: SubmodulePresentation, b: SubmodulePresentation) -> QuotientPresentation:
    """The quotient z/b with canonical lifts; raises InclusionError if b is not inside z.

    Over ZZ both come off one `snf` of b's coordinates in z's basis."""
    if z.ring is not b.ring or z.ambient_rank != b.ambient_rank:
        raise ValueError("z and b live in different ambient modules")
    ring = z.ring
    n = z.ambient_rank
    if ring.is_field:
        # One RREF of [b | z | I] (`_with_identity`), pivots among the b
        # and z columns only.  The b columns are independent, so they
        # pivot first; the z pivots past them are the greedy lifts of a
        # basis of z/b, and z columns that start no pivot change no row.
        # The I part is the transform taking an element of z to its
        # coordinates on (b, lifts); reduce needs its rows from nb on, the
        # lift rows over one common pivot denominator and the rest, which
        # vanish on z, up to a scalar.  A column is its generator times
        # the pivot entry h, so a lift's transform row times h gives the
        # coordinate on the generator.
        nb, nz = b.rank, z.rank
        w = nb + nz
        basis = b.rows + z.rows
        aug = _with_identity([[g[i] for g in basis] for i in range(n)])
        reduced, pivots = _echelon(ring, aug, w)
        _reduce(ring, reduced, pivots)
        if len(pivots) != nz:
            raise InclusionError("a generator of b lies outside z")
        picked = [c - nb for c in pivots[nb:]]
        scale = [z.rows[i][z.pivots[i]] for i in picked]
        reps = ring.quotients([z.rows[i] for i in picked], scale)
        den, lifts = _over_common_pivot(reduced[nb:nz], pivots[nb:])
        t_rows = [row[w:] if h == 1 else [h * x for x in row[w:]] for row, h in zip(lifts, scale)]
        t_rows += [row[w:] for row in reduced[nz:]]
        data = (t_rows, len(reps), den)
        return QuotientPresentation(ring, n, (0,) * len(reps), reps, data)

    coord_cols = []
    for g in b.rows:
        y = _coords_in_hnf(z.rows, z.pivots, g)
        if y is None:
            raise InclusionError("a generator of b lies outside the lattice z")
        coord_cols.append(y)
    k = z.rank
    rel = Mat.from_ints(ring, k, len(coord_cols), [[y[i] for y in coord_cols] for i in range(k)])
    lifts = list(z.rows)  # z's basis, replaced by the generators u fixes
    u, d = snf(rel, lifts)
    factors = [d.ints[i][i] if i < d.cols else 0 for i in range(k)]
    kept = [i for i, f in enumerate(factors) if f != 1]
    # U is the identity when no row operation ran, as always with b = 0.
    ident = len(kept) == k and u.ints == [[int(i == j) for j in range(k)] for i in range(k)]
    data = (z.rows, z.pivots, None if ident else [u.ints[i] for i in kept])
    return QuotientPresentation(ring, n, [factors[i] for i in kept], [lifts[i] for i in kept], data)


# ---------------------------------------------------------------------------
# integer normal forms


def snf(m: Mat, lifts=None):
    """Smith normal form (U, D): U.m.V = D diagonal with d_i | d_{i+1} >= 0.

    One `_smith` of the rows [row i of m | e_i]: D is their first m.cols
    columns, U their tails.  V, the column operations, is not built, as the
    row operations never read it: D and U are as if it were.  Each row
    operation E also replaces rows of ``lifts``, if given, as E^{-T}: then
    lifts[i] ends as sum_j U^{-1}[j][i] lifts[j] (Cohen 1993, 2.4.3).
    """
    if m.ring is not ZZ:
        raise ValueError("Smith normal form is computed over ZZ")
    nc = m.cols
    a = _smith(_with_identity(m.ints), nc, lifts)
    return (Mat.from_ints(ZZ, m.rows, m.rows, [row[nc:] for row in a]),
            Mat.from_ints(ZZ, m.rows, nc, [row[:nc] for row in a]))


def _smith(a, nc, lifts=None):
    """Diagonalize the first nc columns of the integer rows a in place as
    `snf` does and return them.

    Row operations replace whole rows, so the columns from nc on ride
    along as tails; column operations touch only the first nc.  Each row
    operation E also replaces lifts' rows as E^{-T}, unless lifts is None.
    """
    nr = len(a)

    def row_gcd_op(k, i):
        aa, bb = a[k][k], a[i][k]
        if bb % aa == 0:
            q = bb // aa
            a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            if lifts is not None:
                lifts[k] = [s + q * t for s, t in zip(lifts[k], lifts[i])]
        else:
            g, x, y = _xgcd(aa, bb)
            mb, ag = -(bb // g), aa // g
            rk, ri = a[k], a[i]
            a[k] = [x * s + y * t for s, t in zip(rk, ri)]
            a[i] = [mb * s + ag * t for s, t in zip(rk, ri)]
            if lifts is not None:
                lk, li = lifts[k], lifts[i]
                lifts[k] = [ag * s - mb * t for s, t in zip(lk, li)]
                lifts[i] = [x * t - y * s for s, t in zip(lk, li)]

    def col_gcd_op(k, j):
        aa, bb = a[k][k], a[k][j]
        if bb % aa == 0:
            q = bb // aa
            for row in a:
                row[j] -= q * row[k]
        else:
            g, x, y = _xgcd(aa, bb)
            mb, ag = -(bb // g), aa // g
            for row in a:
                s, t = row[k], row[j]
                row[k] = x * s + y * t
                row[j] = mb * s + ag * t

    for k in range(min(nr, nc)):
        first = next(((i, j) for i in range(k, nr) for j in range(k, nc) if a[i][j]), None)
        if first is None:
            break
        i, j = first
        if i != k:
            a[k], a[i] = a[i], a[k]
            if lifts is not None:
                lifts[k], lifts[i] = lifts[i], lifts[k]
        if j != k:
            for row in a:
                row[k], row[j] = row[j], row[k]
        while True:
            for i in range(k + 1, nr):
                if a[i][k]:
                    row_gcd_op(k, i)
            row_dirty = False
            for j in range(k + 1, nc):
                if a[k][j]:
                    col_gcd_op(k, j)
                    row_dirty = True
            if row_dirty:
                continue
            piv = a[k][k]
            bad = -1
            for i in range(k + 1, nr):
                if any(x % piv for x in a[i][k + 1:nc]):
                    bad = i
                    break
            if bad < 0:
                break
            a[k] = [x + y for x, y in zip(a[k], a[bad])]
            if lifts is not None:
                lifts[bad] = [x - y for x, y in zip(lifts[bad], lifts[k])]
    for k in range(min(nr, nc)):
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            if lifts is not None:
                lifts[k] = [-x for x in lifts[k]]
    return a
