"""Test-only oracles: the paper's full cycle and boundary systems, the
witness tuple of a cycle, a kernel built apart from the engine's
`kernel`, L(ker A) built as such a kernel and a span, and one step of a
cell's kernel chain built that way, a textbook Gauss-Jordan
reduction on field scalars, the integer elimination's steps on whole rows
(a Euclid round of `clear`, `reduce_at`, coordinates in an HNF basis),
the Smith pass with its transform U kept apart and updated in place,
an integer subquotient whose generators come off a Hermite inverse of
the Smith transform, the differential formula evaluated on a given
witness, the paper's explicit witnesses of a boundary (Proposition 2.5)
and the constraint checks (*1) and (*2), the class map psi from the
total complex to the witness route, the lift of a witness-route cycle
back to Tot, d_n as a `Mat` read off Tot's stored columns, the filtered route's
elimination with a transform for every column and B_r spanned from its
snapshots, rows equal up to a scalar, the span of scalar
columns, module membership, inclusion and quotient generation, the free
rank and torsion of a homology group, the relation checks done
densely: every cell x n x j probed with dmap lookups, and the product
d_{n-1} d_n of densely assembled total differentials, and a page built
by asking the engine for every support cell's entry.

The full systems are assembled from a `SpectralPages`'s multicomplex, the
witness tuple cuts the z parts of the engine's chain rows, the formulas
apply the structure maps to the witnesses, and psi and the lift build
their own engine, so they check the engines from the outside; no engine
calls them.  Elements of Tot_n are coordinate lists in the degree-n
basis of `totalize`.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from mcss.linalg import (
    Mat,
    MembershipError,
    SubmodulePresentation,
    _echelon,
    _reduce,
    _with_identity,
    _xgcd,
    snf,
)
from mcss.multicomplex import Multicomplex, RelationViolation
from mcss.pages import Page, SpectralPages
from mcss.total import TotalComplex


@dataclass(frozen=True)
class WitnessTuple:
    """Witnesses z_j in C_{p-j, q+j} certifying that some x is an r-cycle."""

    r: int
    p: int
    q: int
    z: dict  # j -> coordinate list, 1 <= j <= r-1


@dataclass(frozen=True)
class CoWitnessTuple:
    """Co-witnesses c_k in C_{p+k, q-k+1} certifying an r-boundary."""

    r: int
    p: int
    q: int
    c: dict  # k -> coordinate list, 0 <= k <= r-1


def zero_vec(ring, n):
    return [ring.zero()] * n


def to_cols(m: Mat):
    """m's columns as canonical scalars; over ZZ and GF(p) read off the stored rows."""
    cols = [[row[j] for row in m.ints] for j in range(m.cols)]
    return m.ring.quotients(cols, [m.den] * m.cols)


def vec_add(ring, u, v):
    (a, b), den = ring.int_rows((u, v))
    return ring.scalars(list(map(add, a, b)), den)


def vec_sub(ring, u, v):
    (a, b), den = ring.int_rows((u, v))
    return ring.scalars(list(map(sub, a, b)), den)


def scalar_span(ring, n, columns):
    """The submodule of ring^n spanned by columns of scalars, put on the
    integer rows `SubmodulePresentation.span` reads (`Ring.int_rows`)."""
    rows = [[ring.normalize(v) for v in c] for c in columns]
    return SubmodulePresentation.span(ring, n, ring.int_rows(rows)[0])


def contains(module, vec) -> bool:
    """Whether vec lies in the submodule: adding it leaves the canonical span unchanged."""
    return scalar_span(module.ring, module.ambient_rank, [*module.gens, vec]) == module


def includes(a, b):
    """Whether b is a submodule of a."""
    return all(contains(a, g) for g in b.gens)


def free_rank(h) -> int:
    """The number of free summands of a homology group."""
    return h.invariants.count(0)


def torsion(h) -> tuple:
    """The torsion invariant factors of a homology group."""
    return tuple(d for d in h.invariants if d)


def spans(quot, coord_vectors) -> bool:
    """Whether the given coordinate tuples generate the whole quotient."""
    k = len(quot.invariants)
    if k == 0:
        return True
    if quot.ring.is_field:
        return scalar_span(quot.ring, k, coord_vectors).rank == k
    cols = [list(v) for v in coord_vectors]
    for i, d in enumerate(quot.invariants):
        if d:
            rel = [0] * k
            rel[i] = d
            cols.append(rel)
    h, pivot_rows = _echelon(quot.ring, cols, k)
    return len(pivot_rows) == k and all(h[i][r] == 1 for i, r in enumerate(pivot_rows))


def _assemble(ring, widths, blocks):
    """Stack row blocks (rows, [(column block, map or None, negate)]).

    Returns the Mat and the column offsets of the blocks.
    """
    offs = [0]
    for w in widths:
        offs.append(offs[-1] + w)
    grid = []
    for tr, maps in blocks:
        rows = [[ring.zero()] * offs[-1] for _ in range(tr)]
        for b, m, negate in maps:
            if m is None:
                continue
            o = offs[b]
            for row, src in zip(rows, m.data):
                row[o:o + m.cols] = [ring.neg(v) for v in src] if negate else src
        grid.extend(rows)
    return Mat(ring, len(grid), offs[-1], grid), offs


def cycle_system(sp: SpectralPages, r, p, q):
    """Rows d_n x - sum_{j=1}^{n} d_{n-j} z_j, 0 <= n < r, on (x, z_1, ..., z_{r-1})."""
    c = sp.c
    widths = [c.rank(p - j, q + j) for j in range(r)]
    blocks = [(c.rank(p - n, q + n - 1),
               [(0, c.dmap(n, p, q), False)]
               + [(j, c.dmap(n - j, p - j, q + j), True) for j in range(1, n + 1)])
              for n in range(r)]
    return _assemble(c.ring, widths, blocks)


def cowitnesses(sp: SpectralPages, r, p, q) -> list:
    """Co-witness tuples spanning the kernel of the boundary system."""
    c = sp.c
    widths = [c.rank(p + k, q - k + 1) for k in range(r)]
    blocks = [
        (c.rank(p + l, q - l),
         [(k, c.dmap(k - l, p + k, q - k + 1), False)
          for k in range(l, min(r, l + c.maxd + 1))])
        for l in range(1, r)
    ]
    mat, offs = _assemble(c.ring, widths, blocks)
    if not mat.cols:
        return []
    return [
        CoWitnessTuple(r, p, q, {k: list(g[offs[k]:offs[k + 1]]) for k in range(r)})
        for g in oracle_kernel(mat).gens
    ]


def witness_tuple(sp: SpectralPages, r, p, q, x, scramble=None) -> WitnessTuple:
    """The witnesses z_j, j < r, of x in Z_r; raises if x is not a cycle.

    They are the z parts of the combination of the chain step K_s's rows
    that `sp.witness` finds for x, cut at the chain's block offsets, and
    zero past s.  `scramble` seeds a combination of K_s's rows with x part
    zero, added to the canonical one, giving a different (still valid)
    witness for independence tests.
    """
    c = sp.c
    ring = c.ring
    nx = c.rank(p, q)
    x = [ring.normalize(v) for v in x]
    if len(x) != nx:
        raise ValueError("element length does not match the cell rank")
    if r < 1:
        return WitnessTuple(r, p, q, {})
    t = sp.witness(r, p, q, x)
    zs, _, k = sp._chain(r, p, q)
    # A chain that ended at Z_s = 0 has no K_r past s, and the x = 0 part
    # of K_s need not solve the later rows: x = 0 keeps its zero witness.
    if scramble is not None and zs.rank:
        rng = random.Random(scramble)
        t += [ring.normalize(rng.randint(-3, 3)) for _ in range(zs.rank, k.rank)]
    (tints,), tden = ring.int_rows((t,))
    zcols = [[g[i] for g in k.rows[:len(t)]] for i in range(nx, k.ambient_rank)]
    flat = ring.dots(zcols, tints, tden)
    # Block j < s of K_s spans K_j's ambient up to K_{j+1}'s.
    ends = [st[2].ambient_rank - nx for st in sp._chains.get((p, q), [])[:r]]
    return WitnessTuple(r, p, q, {
        j: flat[ends[j - 1]:ends[j]] if j < len(ends) else zero_vec(ring, c.rank(p - j, q + j))
        for j in range(1, r)})


def gauss_jordan(ring, rows, limit):
    """The reduced row echelon form of field scalar rows, each pivot 1 and
    among the columns < limit, as (rows, pivots): textbook Gauss-Jordan on
    scalars, sharing no code with the package's eliminations."""
    rows = [[ring.normalize(v) for v in row] for row in rows]
    pivots = []
    for c in range(limit):
        pr = len(pivots)
        piv = next((i for i in range(pr, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        inv = ring.normalize(1 / Fraction(rows[piv][c]))
        rows[pr], rows[piv] = rows[piv], rows[pr]
        rows[pr] = [ring.normalize(inv * v) for v in rows[pr]]
        for i, row in enumerate(rows):
            if i != pr and row[c]:
                f = row[c]
                rows[i] = [ring.normalize(x - f * y) for x, y in zip(row, rows[pr])]
        pivots.append(c)
    return rows, pivots


def dense_euclid_round(vecs, active, c):
    """One Euclid round of `Ring.clear` over ZZ at position c, on whole
    rows: the first active vector of smallest |entry| at c is subtracted,
    with nearest-integer multipliers, from the other active vectors across
    their full width.  Replaces those vectors in vecs; returns the pivot's
    index and the active vectors still nonzero at c, the pivot first."""
    k = min(active, key=lambda j: abs(vecs[j][c]))
    vk = vecs[k]
    a = vk[c]
    left = [k]
    for j in active:
        if j == k:
            continue
        vj = vecs[j]
        q, rem = divmod(vj[c], a)
        if 2 * abs(rem) > abs(a):
            q += 1
            rem -= a
        vecs[j] = [x - q * y for x, y in zip(vj, vk)]
        if rem:
            left.append(j)
    return k, left


def dense_clear(vecs, active, c):
    """`Ring.clear` over ZZ on whole rows: `dense_euclid_round` until one
    active vector is left, whose entry at c is then made positive."""
    k = active[0]
    while len(active) > 1:
        k, active = dense_euclid_round(vecs, active, c)
    if vecs[k][c] < 0:
        vecs[k] = [-u for u in vecs[k]]
    return k


def dense_reduce_at(vec, pv, c):
    """vec brought into [0, pv[c]) at c by the pivot vector pv, on the whole row."""
    q = vec[c] // pv[c]
    return [x - q * y for x, y in zip(vec, pv)] if q else vec


def dense_coords_in_hnf(cols, pivot_rows, vec):
    """Integer coordinates of vec in an HNF column basis, or None, with
    each column subtracted from the residual across its full width."""
    residual = list(vec)
    y = [0] * len(cols)
    for i, r in enumerate(pivot_rows):
        t = residual[r]
        if not t:
            continue
        piv = cols[i][r]
        if t % piv:
            return None
        q = y[i] = t // piv
        residual = [u - q * w for u, w in zip(residual, cols[i])]
    return None if any(residual) else y


def separate_u_snf(m: Mat, lifts=None):
    """`snf` as (U, D) with U kept as a matrix of its own, not as tails.

    The Smith pass as a separate loop: each row operation E updates U's
    rows as E, in place and only where a row it reads is nonzero, and
    replaces lifts' rows, if given, as E^{-T}.
    """
    nr, nc = m.rows, m.cols
    a = [row[:] for row in m.ints]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]

    def row_gcd_op(k, i):
        aa, bb = a[k][k], a[i][k]
        if bb % aa == 0:
            q = bb // aa
            a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            uk, ui = u[k], u[i]
            for j in range(nr):
                if uk[j]:
                    ui[j] -= q * uk[j]
            if lifts is not None:
                lifts[k] = [s + q * t for s, t in zip(lifts[k], lifts[i])]
        else:
            g, x, y = _xgcd(aa, bb)
            mb, ag = -(bb // g), aa // g
            rk, ri = a[k], a[i]
            a[k] = [x * s + y * t for s, t in zip(rk, ri)]
            a[i] = [mb * s + ag * t for s, t in zip(rk, ri)]
            rk, ri = u[k], u[i]
            for j in range(nr):
                s, t = rk[j], ri[j]
                if s or t:
                    rk[j] = x * s + y * t
                    ri[j] = mb * s + ag * t
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
            u[k], u[i] = u[i], u[k]
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
            bad = next((i for i in range(k + 1, nr) if any(x % piv for x in a[i][k + 1:])), -1)
            if bad < 0:
                break
            a[k] = [x + y for x, y in zip(a[k], a[bad])]
            uk, ub = u[k], u[bad]
            for j in range(nr):
                if ub[j]:
                    uk[j] += ub[j]
            if lifts is not None:
                lifts[bad] = [x - y for x, y in zip(lifts[bad], lifts[k])]
    for k in range(min(nr, nc)):
        if a[k][k] < 0:
            a[k] = [-x for x in a[k]]
            u[k] = [-x for x in u[k]]
            if lifts is not None:
                lifts[k] = [-x for x in lifts[k]]
    return Mat.from_ints(m.ring, nr, nr, u), Mat.from_ints(m.ring, nr, nc, a)


def hermite_inverse_subquotient(z: SubmodulePresentation, b: SubmodulePresentation):
    """z/b over ZZ with U inverted apart from the Smith pass, as
    (invariants, gens, reduce).

    `snf`'s U (no lifts carried), the canonical Hermite form of the stacked
    columns (u_j ; e_j), which is (I ; W) with U.W = I, and each kept
    generator summed from z's basis with the coefficients of W's column;
    `reduce` takes an element of z to U's kept rows times its coordinates,
    torsion entries mod d.
    """
    ring, n, k = z.ring, z.ambient_rank, z.rank
    coord_cols = [dense_coords_in_hnf(z.rows, z.pivots, g) for g in b.rows]
    u, d = snf(Mat(ring, k, len(coord_cols), [[y[i] for y in coord_cols] for i in range(k)]))
    factors = [d.ints[i][i] if i < min(d.rows, d.cols) else 0 for i in range(k)]
    stacked, spivots = _echelon(ring, _with_identity(to_cols(u)), 2 * k)
    _reduce(ring, stacked, spivots)
    assert [row[:k] for row in stacked] == [[int(i == j) for j in range(k)] for i in range(k)]
    kept = [i for i, f in enumerate(factors) if f != 1]
    gens = []
    for i in kept:
        amb = [0] * n
        for coef, g in zip(stacked[i][k:], z.rows):
            amb = [a + coef * gv for a, gv in zip(amb, g)]
        gens.append(tuple(amb))
    invariants = tuple(factors[i] for i in kept)

    def reduce(vec):
        y = dense_coords_in_hnf(z.rows, z.pivots, vec)
        w = [sum(a * x for a, x in zip(u.ints[i], y)) for i in kept]
        return tuple(x % f if f else x for x, f in zip(w, invariants))

    return invariants, tuple(gens), reduce


def oracle_kernel(m: Mat) -> SubmodulePresentation:
    """{x : m.x = 0} in two eliminations, not by `kernel`'s one.

    Over a field: the free-variable vectors of the reduced row echelon
    form of m, spanned.  Over ZZ: the columns [col_j | e_j] eliminated on
    the rows of m, whose tails past the pivots are a transform basis of
    the kernel, spanned.
    """
    ring, n = m.ring, m.cols
    if ring.is_field:
        reduced, pivots = _echelon(ring, m.ints, n)
        _reduce(ring, reduced, pivots)
        rref = ring.quotients(reduced[:len(pivots)], [row[c] for row, c in zip(reduced, pivots)])
        gens = []
        for f in sorted(set(range(n)) - set(pivots)):
            v = [ring.zero()] * n
            v[f] = ring.normalize(1)
            for row, c in zip(rref, pivots):
                v[c] = ring.neg(row[f])
            gens.append(v)
        return scalar_span(ring, n, gens)
    cols = [[row[j] for row in m.ints] + [int(i == j) for i in range(n)] for j in range(n)]
    h, pivots = _echelon(ring, cols, m.rows)
    return SubmodulePresentation.span(ring, n, [col[m.rows:] for col in h[len(pivots):]])


def kernel_then_span(ring, equations, images):
    """L(ker A) in three eliminations: `oracle_kernel` of the integer
    equation rows A, one column per unknown u; each kernel vector t mapped
    to sum_u t_u images[u], images integer rows; the span of those."""
    ker = oracle_kernel(Mat.from_ints(ring, len(equations), len(images), equations))
    icols = list(zip(*images))
    return SubmodulePresentation.span(
        ring, len(images[0]), [ring.int_dots(icols, t) for t in ker.rows])


def chain_step(c: Multicomplex, k, s, p, q, values):
    """K_{s+1} at (p, q) from the chain step (K_s, V_s), in three eliminations.

    The kernel of [den0 V_s | -vden d_0] on the unknowns (t, z_s), d_0 out
    of the z_s cell (p-s, q+s); each kernel vector mapped to
    (sum_k t_k g_k, z_s) over K_s's integer rows g_k; their span.
    """
    ring = c.ring
    vals, vden = values
    m, n = k.rank, k.ambient_rank
    nz, tr = c.rank(p - s, q + s), c.rank(p - s, q + s - 1)
    d0 = c.dmap(0, p - s, q + s)
    d0s, den0 = (d0.ints, d0.den) if d0 is not None else ([[0] * nz] * tr, 1)
    vrows = list(zip(*vals)) or [[0] * m] * tr
    grid = [[den0 * v for v in vrow] + [-vden * x for x in drow] for vrow, drow in zip(vrows, d0s)]
    images = [list(g) + [0] * nz for g in k.rows]
    images += [[0] * n + [int(i == j) for i in range(nz)] for j in range(nz)]
    return kernel_then_span(ring, grid, images)


def delta_value(c: Multicomplex, r, p, q, x, wit: WitnessTuple | None):
    """d_r x - sum_{i=1}^{r-1} d_i z_{r-i} in C_{p-r, q+r-1}, for x and its witness."""
    ring = c.ring
    mr = c.dmap(r, p, q)
    v = mr.matvec(x) if mr is not None else zero_vec(ring, c.rank(p - r, q + r - 1))
    for i in range(1, min(r, c.maxd + 1)):
        j = r - i
        mi = c.dmap(i, p - j, q + j)
        zj = wit.z.get(j)
        if mi is not None and zj is not None and any(zj):
            v = vec_sub(ring, v, mi.matvec(zj))
    return v


def prop25_witness(c: Multicomplex, r, p, q, cow: CoWitnessTuple) -> WitnessTuple:
    """The explicit witnesses z_{p-j} = -sum_i d_{j+i} c_{p+i} for a boundary.

    Verifies the co-witness constraint system first, and asserts that the
    produced witnesses satisfy the cycle equations for x = sum_k d_k c_{p+k}.
    """
    ring = c.ring
    if not star2_holds(c, r, p, q, cow):
        raise ValueError("co-witness tuple does not satisfy the boundary constraints")
    z = {}
    for j in range(1, r):
        rank_j = c.rank(p - j, q + j)
        acc = zero_vec(ring, rank_j)
        for i in range(0, r):
            ci = cow.c.get(i)
            m = c.dmap(j + i, p + i, q - i + 1)
            if m is not None and ci is not None and any(ci):
                acc = vec_sub(ring, acc, m.matvec(ci))
        z[j] = acc
    x = boundary_value(c, r, p, q, cow)
    wit = WitnessTuple(r, p, q, z)
    assert star1_holds(c, r, p, q, x, wit), "explicit witnesses fail the cycle equations"
    return wit


def boundary_value(c: Multicomplex, r, p, q, cow: CoWitnessTuple):
    """x = sum_{k<r} d_k c_{p+k} in C_{p,q}."""
    ring = c.ring
    x = zero_vec(ring, c.rank(p, q))
    for k in range(r):
        ck = cow.c.get(k)
        m = c.dmap(k, p + k, q - k + 1)
        if m is not None and ck is not None and any(ck):
            x = vec_add(ring, x, m.matvec(ck))
    return x


def star1_holds(c: Multicomplex, r, p, q, x, wit: WitnessTuple) -> bool:
    """Check d_0 x = 0 and d_n x = sum_{i<n} d_i z_{p-n+i} for 1 <= n < r."""
    ring = c.ring
    m0 = c.dmap(0, p, q)
    if m0 is not None and any(m0.matvec(x)):
        return False
    for n in range(1, r):
        tr = c.rank(p - n, q + n - 1)
        mn = c.dmap(n, p, q)
        lhs = mn.matvec(x) if mn is not None else zero_vec(ring, tr)
        rhs = zero_vec(ring, tr)
        for j in range(1, n + 1):
            mj = c.dmap(n - j, p - j, q + j)
            zj = wit.z.get(j)
            if mj is not None and zj is not None and any(zj):
                rhs = vec_add(ring, rhs, mj.matvec(zj))
        if lhs != rhs:
            return False
    return True


def star2_holds(c: Multicomplex, r, p, q, cow: CoWitnessTuple) -> bool:
    """Check the boundary constraints 0 = sum_{k>=l} d_{k-l} c_{p+k}, 1 <= l < r."""
    ring = c.ring
    for l in range(1, r):
        tr = c.rank(p + l, q - l)
        acc = zero_vec(ring, tr)
        for k in range(l, r):
            mk = c.dmap(k - l, p + k, q - k + 1)
            ck = cow.c.get(k)
            if mk is not None and ck is not None and any(ck):
                acc = vec_add(ring, acc, mk.matvec(ck))
        if any(acc):
            return False
    return True


def delta_with_witness(sp: SpectralPages, r, p, q, x, scramble=None):
    """The reduced Delta_r of one element, for the witness seeded by `scramble`."""
    wit = witness_tuple(sp, r, p, q, x, scramble) if r >= 1 else None
    return sp.entry(r, p - r, q + r - 1).quot.reduce(delta_value(sp.c, r, p, q, x, wit))


def embed(t: TotalComplex, n, a, local) -> list:
    """The element of Tot_n that is `local` in the (a, n-a) block and 0 elsewhere."""
    start, rank = t.block_start(n, a)
    if start is None:
        if any(local):
            raise ValueError(f"no block at column {a} in degree {n}")
        return zero_vec(t.ring, t.dim(n))
    if len(local) != rank:
        raise ValueError("local vector has the wrong length")
    coords = zero_vec(t.ring, t.dim(n))
    coords[start:start + rank] = [t.ring.normalize(v) for v in local]
    return coords


def differential(t: TotalComplex, n) -> Mat:
    """d_n: Tot_n -> Tot_{n-1} as a Mat, read off Tot's stored integer columns."""
    cols = t.columns(n)
    rows = [t.ring.scalars([col[i] for col in cols], t.den) for i in range(t.dim(n - 1))]
    return Mat(t.ring, t.dim(n - 1), t.dim(n), rows)


def full_transform_reduction(t: TotalComplex, n, start):
    """d_n on F_p (from coordinate `start` on) eliminated as the rows
    [col_j | den e_j] with a transform for every column of F_p, not only
    for its first block: (pivots, suffix by pivot count, final pivot rows)."""
    snaps = dict.fromkeys(t.block_starts(n - 1))
    vecs, pivots = _echelon(t.ring, _with_identity(t.columns(n)[start:], t.den), t.dim(n - 1),
                            snaps)
    return pivots, dict(snaps.values()), vecs[:len(pivots)]


def proportional(ring, u, v) -> bool:
    """u is a nonzero multiple of v over QQ, where rows are known up to a
    scalar, and equal to v over ZZ and GF(p)."""
    if ring.kind != "Q":
        return u == v
    j = next((i for i, x in enumerate(v) if x), None)
    if j is None:
        return not any(u)
    return u[j] != 0 and all(x * v[j] == y * u[j] for x, y in zip(u, v, strict=True))


def suffix_boundaries(fp, r, p, n) -> SubmodulePresentation:
    """pi_p(BB_r^p) spanned from the reduction's snapshot: the suffix of d_{n+1}
    on F_{p+r-1} cut at F_{p-1}, each row's boundary cut to the (p, n-p) block."""
    t = fp.t
    lo, width = t.filtration_start(n, p), t.block_start(n, p)[1]
    if r == 0:
        return SubmodulePresentation.zero(t.ring, width)
    rows = fp._suffix(fp._key(r - 1, p + r - 1, n + 1))
    return SubmodulePresentation.span(t.ring, width, [v[lo:lo + width] for v in rows])


def psi(t: TotalComplex, c: Multicomplex, r, p, n, x):
    """The class of (x)_p on the witness side, for x an r-cycle on Tot_n."""
    dx = differential(t, n).matvec(x)
    if any(x[:t.filtration_start(n, p)]) or any(dx[:t.filtration_start(n - 1, p - r)]):
        raise MembershipError("element does not lie in the filtered cycle module")
    start, width = t.block_start(n, p)
    local = [] if start is None else x[start:start + width]
    return SpectralPages(c).entry(r, p, n - p).quot.reduce(local)


def lift_to_total(c: Multicomplex, t: TotalComplex, r, p, q, x) -> list:
    """x - z_{p-1} - ... - z_{p-r+1} as a filtered r-cycle on Tot.

    Uses the canonical witnesses; psi checks membership in the filtered
    cycle module, and must carry the lift back to [x].
    """
    ring, n = t.ring, p + q
    x = [ring.normalize(v) for v in x]
    sp = SpectralPages(c)
    lift = embed(t, n, p, x)
    if r >= 2:
        wit = witness_tuple(sp, r, p, q, x)
        for j in range(1, r):
            zj = wit.z.get(j, [])
            if any(zj):
                lift = vec_sub(ring, lift, embed(t, n, p - j, zj))
    want = sp.entry(r, p, q).quot.reduce(x)
    assert psi(t, c, r, p, n, lift) == want, "psi does not invert the lift"
    return lift


def relation_violations(c: Multicomplex) -> list:
    """`Multicomplex.validate` by probing every cell, n <= 2 maxd and j <= n."""
    violations = []
    for (a, b) in c.support:
        for n in range(0, 2 * c.maxd + 1):
            if not c.rank(a - n, b + n - 2):
                continue
            pairs = [(second, first) for j in range(0, n + 1)
                     if (first := c.dmap(j, a, b)) is not None
                     and (second := c.dmap(n - j, a - j, b + j - 1)) is not None]
            if not pairs:
                continue
            total = pairs[0][0].mul(pairs[0][1])
            for second, first in pairs[1:]:
                total = total.add(second.mul(first))
            if not total.is_zero():
                violations.append(RelationViolation(n, a, b, total))
    return violations


def dense_differentials(c: Multicomplex) -> dict:
    """n -> the dense d_n: Tot_n -> Tot_{n-1}, in `totalize`'s basis order, for
    every n with both dimensions nonzero; assembled entry by entry."""
    blocks = {}
    for (a, b), rank in sorted(c.ranks.items(), key=lambda kv: -kv[0][0]):
        blocks.setdefault(a + b, []).append((a, b, rank))
    offsets = {n: {} for n in blocks}
    for n, cells in blocks.items():
        pos = 0
        for a, _, rank in cells:
            offsets[n][a] = pos
            pos += rank
    dims = {n: sum(rank for _, _, rank in cells) for n, cells in blocks.items()}
    diffs = {}
    for n, cells in blocks.items():
        if not dims.get(n - 1):
            continue
        grid = [[c.ring.zero()] * dims[n] for _ in range(dims[n - 1])]
        for a, b, rank in cells:
            for i in range(c.maxd + 1):
                m = c.dmap(i, a, b)
                if m is not None:
                    for r in range(m.rows):
                        for k in range(rank):
                            grid[offsets[n - 1][a - i] + r][offsets[n][a] + k] = m.data[r][k]
        diffs[n] = Mat(c.ring, dims[n - 1], dims[n], grid)
    return diffs


def first_nonsquare_degree(c: Multicomplex):
    """The least n with d_{n-1} d_n != 0 as a dense product, or None."""
    d = dense_differentials(c)
    return next((n for n in sorted(d) if n - 1 in d and not d[n - 1].mul(d[n]).is_zero()),
                None)


def per_cell_page(sp: SpectralPages, r) -> Page:
    """Page r as one loop over the support: `entry` for every cell, and
    `delta` out of every nonzero entry into a present cell."""
    c = sp.c
    entries = {cell: sp.entry(r, *cell) for cell in c.support}
    deltas = {(p, q): sp.delta(r, p, q) for (p, q), e in entries.items()
              if e.invariants and c.rank(p - r, q + r - 1)}
    return Page(r, entries, deltas)
