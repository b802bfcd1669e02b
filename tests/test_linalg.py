"""Exact linear algebra: spec'd examples, invariants, and property sweeps."""

import copy
import pickle
import random
import time
from bisect import bisect_left
from math import gcd
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.normalforms import hermite_normal_form, invariant_factors

from mcss.linalg import (
    InclusionError,
    Mat,
    MembershipError,
    SubmodulePresentation,
    _coords_in_hnf,
    _echelon,
    _kernel_image,
    _reduce,
    _with_identity,
    image,
    kernel,
    snf,
    solve,
    subquotient,
)
from mcss import rings
from mcss.rings import GF, QQ, ZZ, Ring, is_prime
from oracles import (
    contains,
    dense_clear,
    dense_coords_in_hnf,
    dense_reduce_at,
    hermite_inverse_subquotient,
    kernel_then_span,
    oracle_kernel,
    scalar_span,
    separate_u_snf,
    spans,
    vec_add,
    vec_sub,
)

RINGS = [QQ, ZZ, GF(2), GF(5), GF(97)]


def _identity(ring, n):
    return Mat(ring, n, n, [[int(i == j) for j in range(n)] for i in range(n)])


def _zeros(ring, rows, cols):
    return Mat(ring, rows, cols, [[0] * cols for _ in range(rows)])


def test_doctests():
    import doctest

    import mcss.linalg

    result = doctest.testmod(mcss.linalg)
    assert result.attempted >= 1 and result.failed == 0


def test_primality():
    assert is_prime(2) and is_prime(97) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(91) and not is_prime(2**20)


def test_ring_normalization():
    assert GF(5).normalize(-3) == 2
    assert GF(5).normalize(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
    assert QQ.normalize(4) == Fraction(4)
    assert ZZ.normalize(Fraction(6, 3)) == 2
    with pytest.raises(ValueError):
        ZZ.normalize(Fraction(1, 2))
    with pytest.raises(ValueError):
        GF(5).normalize(Fraction(1, 5))
    with pytest.raises(ValueError):
        Ring("F", 6)


# ---------------------------------------------------------------------------
# kernel


def test_kernel_zero_map_rationals():
    k = kernel(Mat(QQ, 1, 1, [[0]]))
    assert k.ambient_rank == 1
    assert k.gens == ((Fraction(1),),)


def test_kernel_injective_fp():
    k = kernel(_identity(GF(5), 3))
    assert k.rank == 0


def test_kernel_integer_lattice_matches_enumeration():
    # Independent oracle: enumerate all small solutions of 2a + 4b = 0.
    m = Mat(ZZ, 1, 2, [[2, 4]])
    k = kernel(m)
    enumerated = [(a, b) for a in range(-10, 11) for b in range(-10, 11) if 2 * a + 4 * b == 0]
    for sol in enumerated:
        assert contains(k, list(sol))
    assert k.gens == ((2, -1),)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(97)], ids=str)
@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (2, 0)])
def test_kernel_and_solve_of_empty_shapes(ring, rows, cols):
    # A map out of or into the zero module: `_kernel_image` needs at least
    # one unknown, so `kernel` answers 0 columns itself; 0 rows leave
    # every x a solution of m.x = 0, and 0 the pinned one.
    m = _zeros(ring, rows, cols)
    assert kernel(m) == SubmodulePresentation.full(ring, cols) == oracle_kernel(m)
    assert solve(m, [ring.zero()] * rows) == [ring.zero()] * cols
    if rows:
        assert solve(m, [ring.normalize(1)] + [ring.zero()] * (rows - 1)) is None


# ---------------------------------------------------------------------------
# solve


def test_solve_no_integer_solution():
    assert solve(Mat(ZZ, 1, 1, [[2]]), [3]) is None


def test_solve_rational():
    assert solve(Mat(QQ, 1, 1, [[2]]), [3]) == [Fraction(3, 2)]


def test_solve_f2_deterministic_choice():
    # Oracle: check all four vectors of F_2^2; two solve, the echelon one wins.
    m = Mat(GF(2), 2, 2, [[1, 1], [0, 0]])
    b = [1, 0]
    sols = [
        (x0, x1)
        for x0 in range(2)
        for x1 in range(2)
        if ((x0 + x1) % 2, 0) == (b[0], b[1])
    ]
    assert set(sols) == {(1, 0), (0, 1)}
    assert solve(m, b) == [1, 0]


# ---------------------------------------------------------------------------
# image


def test_image_zero_and_identity():
    assert image(_zeros(QQ, 3, 2)).rank == 0
    full = image(_identity(GF(5), 4))
    assert full == SubmodulePresentation.full(GF(5), 4)


def test_image_integer_lattice_membership():
    # Oracle: brute-force membership over small integer combinations.
    m = Mat(ZZ, 2, 2, [[2, 4], [6, 8]])
    im = image(m)
    combos = {
        (2 * a + 4 * b, 6 * a + 8 * b) for a in range(-6, 7) for b in range(-6, 7)
    }
    for v in combos:
        assert contains(im, list(v))
    assert contains(im, [2, 6])
    assert not contains(im, [1, 3])


@pytest.mark.parametrize("ring", [QQ, ZZ], ids=str)
def test_module_equality_needs_equal_pivots_and_gens(ring):
    a = SubmodulePresentation.span(ring, 2, [[1, 1]])
    assert a == a and a == SubmodulePresentation.span(ring, 2, [[2, 2], [3, 3]])
    same_pivots = SubmodulePresentation.span(ring, 2, [[1, 2]])
    assert same_pivots.pivots == a.pivots and same_pivots.gens != a.gens
    assert same_pivots != a
    other_pivots = SubmodulePresentation.span(ring, 2, [[0, 1]])
    assert other_pivots.pivots != a.pivots and other_pivots != a


# ---------------------------------------------------------------------------
# subquotient


def test_subquotient_full_by_zero():
    z = SubmodulePresentation.full(QQ, 2)
    b = SubmodulePresentation.zero(QQ, 2)
    q = subquotient(z, b)
    assert q.invariants == (0, 0)
    assert q.invariants.count(0) == 2


def test_subquotient_z_mod_2z():
    z = SubmodulePresentation.span(ZZ, 2, [[1, 0]])
    b = SubmodulePresentation.span(ZZ, 2, [[2, 0]])
    q = subquotient(z, b)
    assert q.invariants == (2,)
    assert q.reduce([1, 0]) == (1,)
    assert q.reduce([2, 0]) == (0,)
    assert q.reduce([5, 0]) == (1,)


def test_subquotient_plane_by_diagonal():
    z = SubmodulePresentation.full(QQ, 2)
    b = SubmodulePresentation.span(QQ, 2, [[1, 1]])
    q = subquotient(z, b)
    assert q.invariants == (0,)
    r1 = q.reduce([1, 0])
    r2 = q.reduce([0, 1])
    assert r1 == tuple(-c for c in r2) and any(r1)


def test_subquotient_rejects_bad_inclusion():
    z = SubmodulePresentation.span(ZZ, 2, [[2, 0]])
    b = SubmodulePresentation.span(ZZ, 2, [[1, 0]])
    with pytest.raises(InclusionError):
        subquotient(z, b)
    zq = SubmodulePresentation.span(QQ, 2, [[1, 0]])
    bq = SubmodulePresentation.span(QQ, 2, [[0, 1]])
    with pytest.raises(InclusionError):
        subquotient(zq, bq)


def test_subquotient_membership_error():
    z = SubmodulePresentation.span(ZZ, 2, [[2, 0]])
    q = subquotient(z, SubmodulePresentation.zero(ZZ, 2))
    with pytest.raises(MembershipError):
        q.reduce([1, 1])


def test_quotient_spans():
    z = SubmodulePresentation.full(ZZ, 2)
    b = SubmodulePresentation.span(ZZ, 2, [[2, 0], [0, 3]])
    q = subquotient(z, b)
    assert sorted(q.invariants) == [2, 3] or q.invariants == (6,)
    gens_coords = [q.reduce(list(g)) for g in q.gens]
    assert spans(q, gens_coords)
    assert not spans(q, gens_coords[:0])


# ---------------------------------------------------------------------------
# Smith normal form


def test_snf_identity():
    u, d = snf(_identity(ZZ, 3))
    assert d == _identity(ZZ, 3)


def test_snf_example():
    # |det| = 8 and entry gcd 2 force diag(2, 4).
    m = Mat(ZZ, 2, 2, [[2, 4], [6, 8]])
    u, d = snf(m)
    assert [d.data[i][i] for i in range(2)] == [2, 4]
    # U.m.V = D for a unimodular V exactly when U.m and D span one lattice.
    assert image(u.mul(m)) == image(d)
    assert sympy.Matrix(u.data).det() in (1, -1)


def test_snf_zero():
    u, d = snf(_zeros(ZZ, 2, 3))
    assert d.is_zero()
    assert image(u.mul(_zeros(ZZ, 2, 3))) == image(d)


# ---------------------------------------------------------------------------
# property sweeps

scalar_st = st.integers(min_value=-9, max_value=9)


def field_entry_st(ring):
    """Entries over a field: rationals with denominators up to 6 over QQ."""
    if ring.kind == "Q":
        return st.builds(Fraction, scalar_st, st.integers(min_value=1, max_value=6))
    return scalar_st.map(ring.normalize)


def mat_strategy(ring, entries=scalar_st):
    return st.integers(min_value=0, max_value=4).flatmap(
        lambda r: st.integers(min_value=0, max_value=4).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows: Mat(ring, r, c, rows))
        )
    )


@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_and_solve_invariants(ring, data):
    m = data.draw(mat_strategy(ring))
    k = kernel(m)
    assert k.ambient_rank == m.cols
    for g in k.gens:
        assert not any(m.matvec(list(g)))
    b = [ring.normalize(v) for v in data.draw(
        st.lists(scalar_st, min_size=m.rows, max_size=m.rows))]
    x = solve(m, b)
    if x is not None:
        assert m.matvec(x) == b
    elif ring.is_field:
        # Inconsistency certificate: rank of [m|b] exceeds rank of m.
        aug = Mat(ring, m.rows, m.cols + 1, [row + [bv] for row, bv in zip(m.data, b)])
        assert image(aug).rank > image(m).rank
    # Determinism: same inputs, bit-identical results.
    assert kernel(m) == k
    assert solve(m, b) == x


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_snf_invariants(data):
    m = data.draw(mat_strategy(ZZ))
    u, d = snf(m)
    assert image(u.mul(m)) == image(d)
    assert sympy.Matrix(u.data).det() in (1, -1)
    diag = [d.data[i][i] for i in range(min(d.rows, d.cols))]
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d.data[i][j] == 0


def _domain_matrix(ring, rows, ncols):
    """Rows of field scalars as a sympy DomainMatrix, an independent oracle."""
    dom = sympy.QQ if ring.kind == "Q" else sympy.GF(ring.p)
    entries = [[dom(v.numerator) / dom(v.denominator) for v in row] for row in rows]
    return DomainMatrix(entries, (len(rows), ncols), dom)


def _from_sympy(ring, x):
    if ring.kind == "Q":
        return Fraction(int(x.numerator), int(x.denominator))
    return ring.normalize(int(x))


def _sympy_rank(ring, cols, nrows):
    """Rank of a column family by sympy's DomainMatrix."""
    return _domain_matrix(ring, [[c[i] for c in cols] for i in range(nrows)], len(cols)).rank()


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(97)], ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rref_field_matches_sympy(ring, data):
    nrows = data.draw(st.integers(min_value=0, max_value=4))
    ncols = data.draw(st.integers(min_value=1, max_value=6))
    entries = field_entry_st(ring)
    rows = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                              min_size=nrows, max_size=nrows))
    limit = data.draw(st.none() | st.integers(min_value=0, max_value=ncols - 1))
    lim = ncols if limit is None else limit
    # The integer-row forms every caller passes: the rows over one common
    # denominator, and each row's integer form times a drawn nonzero
    # scalar, over GF(p) a unit, reduced to residues.
    scale = st.integers(1, ring.p - 1) if ring.p else st.integers(-9, 9).filter(bool)
    factors = data.draw(st.lists(scale, min_size=nrows, max_size=nrows))
    scaled = [[k * x for x in ring.int_rows((row,))[0][0]] for row, k in zip(rows, factors)]
    if ring.p:
        scaled = [[x % ring.p for x in row] for row in scaled]
    ref, ref_pivots = _domain_matrix(ring, [row[:lim] for row in rows], lim).rref()
    rank = _domain_matrix(ring, rows, ncols).rank()

    def rref(ints):
        out, pivots = _echelon(ring, ints, lim)
        return _reduce(ring, out, pivots), pivots

    for out, pivots in (rref(ring.int_rows(rows)[0]), rref(scaled)):
        assert list(pivots) == list(ref_pivots)
        for row, c, ref_row in zip(out, pivots, ref.to_list()):
            inv = ring.normalize(1 / Fraction(row[c]))
            assert [ring.normalize(x * inv) for x in row[:lim]] == [
                _from_sympy(ring, y) for y in ref_row]
        for row in out[len(pivots):]:
            assert not any(row[:lim])
        if ring.kind == "Q":
            assert all(type(x) is int for row in out for x in row)
        # The rows, past the limit too, span the row space of the input.
        scalars = [[ring.normalize(x) for x in row] for row in out]
        assert _domain_matrix(ring, scalars, ncols).rank() == rank
        assert _domain_matrix(ring, rows + scalars, ncols).rank() == rank

    m = Mat(ring, nrows, ncols, rows)
    null = _domain_matrix(ring, m.data, ncols).nullspace().to_list()
    ref_kernel = scalar_span(ring, ncols, [[_from_sympy(ring, y) for y in v] for v in null])
    assert kernel(m) == ref_kernel == oracle_kernel(m)
    drawn = [ring.normalize(v) for v in data.draw(
        st.lists(entries, min_size=nrows, max_size=nrows))]
    # A drawn right-hand side, then one in the column space.
    coefs = data.draw(st.lists(entries, min_size=ncols, max_size=ncols))
    _, full_pivots = _domain_matrix(ring, rows, ncols).rref()
    for b in (drawn, m.matvec(coefs)):
        x = solve(m, b)
        aug = [row + [bv] for row, bv in zip(m.data, b)]
        if _domain_matrix(ring, aug, ncols + 1).rank() == rank:
            assert x is not None and m.matvec(x) == b
            # solve's contract over a field: x is zero at every column that
            # the rref of the whole matrix leaves without a pivot.
            assert all(x[j] == 0 for j in range(ncols) if j not in full_pivots)
        else:
            assert x is None


@pytest.mark.parametrize("ring", [QQ, GF(2), GF(5)], ids=str)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_subquotient_dimension_over_fields(ring, data):
    entries = field_entry_st(ring)
    mz = data.draw(mat_strategy(ring, entries))
    z = image(mz)
    n = z.ambient_rank
    # Take a sub-span of z's generators, or random elements of z, plus
    # random columns that may leave z.
    if z.rank:
        keep = data.draw(st.lists(st.booleans(), min_size=z.rank, max_size=z.rank))
        sub = [g for g, k in zip(z.gens, keep) if k]
        if data.draw(st.booleans()):
            combos = data.draw(st.lists(st.lists(entries, min_size=z.rank, max_size=z.rank),
                                        max_size=z.rank - 1))
            sub = []
            for coefs in combos:
                v = [ring.zero()] * n
                for t, g in zip(coefs, z.gens):
                    v = vec_add(ring, v, [ring.normalize(t * x) for x in g])
                sub.append(v)
    else:
        sub = []
    extra = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=2))
    b = scalar_span(ring, n, sub + extra)
    if _sympy_rank(ring, list(b.gens) + list(z.gens), n) > z.rank:
        with pytest.raises(InclusionError):
            subquotient(z, b)
        return
    q = subquotient(z, b)
    assert len(q.invariants) == z.rank - b.rank
    for g in q.gens:
        assert contains(z, list(g))
    for g in b.gens:
        assert not any(q.reduce(list(g)))
    lifts = [q.reduce(list(g)) for g in q.gens]
    k = len(lifts)
    assert lifts == [tuple(int(i == j) for j in range(k)) for i in range(k)]
    assert spans(q, lifts)
    if k:
        assert not spans(q, lifts[:-1])
    # A unit vector outside z, moved by an element of z, is refused.
    for j in range(n):
        e = [ring.normalize(int(i == j)) for i in range(n)]
        if _sympy_rank(ring, list(z.gens) + [e], n) > z.rank:
            for g in z.gens:
                e = vec_add(ring, e, g)
            with pytest.raises(MembershipError):
                q.reduce(e)
            break


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_canonical_form_is_basis_independent(data):
    # The stored generators must depend only on the submodule, not on the
    # generating set: rescaling, reordering, and adding multiples of other
    # generators (unimodular moves over ZZ) may not change the presentation.
    ring = data.draw(st.sampled_from(RINGS))
    m = data.draw(mat_strategy(ring))
    sub = image(m)
    cols = [list(g) for g in sub.gens]
    k = len(cols)
    for _ in range(6):
        action = data.draw(st.integers(min_value=0, max_value=2))
        if k == 0:
            break
        i = data.draw(st.integers(min_value=0, max_value=k - 1))
        j = data.draw(st.integers(min_value=0, max_value=k - 1))
        if action == 0 and i != j:
            f = ring.normalize(data.draw(st.integers(min_value=-3, max_value=3)))
            cols[i] = [ring.normalize(a + f * b) for a, b in zip(cols[i], cols[j])]
        elif action == 1:
            cols[i], cols[j] = cols[j], cols[i]
        else:
            cols[i] = [ring.neg(a) for a in cols[i]]
    redone = scalar_span(ring, sub.ambient_rank, cols)
    assert redone == sub


@pytest.mark.parametrize("ring", RINGS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_prefix_matches_span_of_cut_columns(ring, data):
    # A module's projection onto its first `end` coordinates is the span of
    # its columns cut there, without a fresh elimination.
    m = data.draw(mat_strategy(ring))
    n = m.rows
    end = data.draw(st.integers(min_value=0, max_value=n))
    cols = m.to_cols()
    full = scalar_span(ring, n, cols)
    window = scalar_span(ring, end, [c[:end] for c in cols])
    assert full.prefix(end) == window


def _assert_integer_form(mod):
    """Each stored row is primitive, with a positive pivot, and is its generator times it."""
    for row, gen, c in zip(mod.rows, mod.gens, mod.pivots):
        assert all(type(x) is int for x in row)
        assert gcd(*row) == 1 and row[c] > 0
        assert gen[c] == 1 and list(row) == [x * row[c] for x in gen]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rational_modules_live_as_primitive_integer_rows(data):
    # Over QQ, with entries whose denominators run up to 6: the stored form,
    # and every operation on it, agrees with a fresh span of the same vectors.
    entries = field_entry_st(QQ)
    m = data.draw(mat_strategy(QQ, entries))
    n = m.rows
    cols = m.to_cols()
    full = scalar_span(QQ, n, cols)
    _assert_integer_form(full)
    scales = data.draw(st.lists(entries.filter(bool), min_size=len(cols), max_size=len(cols)))
    scaled = [[t * x for x in c] for t, c in zip(scales, cols)]
    assert scalar_span(QQ, n, scaled) == full

    end = data.draw(st.integers(min_value=0, max_value=n))
    window = full.prefix(end)
    assert window == scalar_span(QQ, end, [c[:end] for c in cols])
    pair = st.lists(entries, min_size=2, max_size=2)
    other = scalar_span(QQ, 2, data.draw(st.lists(pair, max_size=2)))
    both = full.direct_sum(other)
    assert both == scalar_span(
        QQ, n + 2, [list(c) + [0, 0] for c in cols] + [[0] * n + list(g) for g in other.gens])
    for mod in (window, other, both):
        _assert_integer_form(mod)

    keep = data.draw(st.lists(st.booleans(), min_size=full.rank, max_size=full.rank))
    b = scalar_span(QQ, n, [g for g, k in zip(full.gens, keep) if k])
    q = subquotient(full, b)
    k = len(q.gens)
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    assert [q.reduce(list(g)) for g in q.gens] == units


def _minor_gcd(m, k):
    """gcd of all k x k minors, by brute-force expansion (tiny matrices)."""
    from itertools import combinations, permutations

    best = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            det = 0
            for perm in permutations(range(k)):
                sign = 1
                seen = list(perm)
                for i in range(k):
                    for j in range(i + 1, k):
                        if seen[i] > seen[j]:
                            sign = -sign
                term = sign
                for i, pi in enumerate(perm):
                    term *= m.data[rows[i]][cols[pi]]
                det += term
            best = gcd_int(best, det)
    return best


def gcd_int(a, b):
    from math import gcd
    return gcd(a, b)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_snf_matches_determinantal_divisors(data):
    # Independent oracle: d_1 ... d_k equals the gcd of all k x k minors.
    r = data.draw(st.integers(min_value=1, max_value=3))
    c = data.draw(st.integers(min_value=1, max_value=3))
    rows = data.draw(st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=c, max_size=c),
        min_size=r, max_size=r))
    m = Mat(ZZ, r, c, rows)
    _, d = snf(m)
    diag = [d.data[i][i] for i in range(min(r, c))]
    partial = 1
    for k in range(1, min(r, c) + 1):
        partial *= diag[k - 1]
        assert partial == _minor_gcd(m, k)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_integer_subquotient_order(data):
    # |Z^n / L| equals |det| of the relation matrix when it is nonsingular.
    n = data.draw(st.integers(min_value=1, max_value=3))
    rows = data.draw(
        st.lists(st.lists(scalar_st, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    m = Mat(ZZ, n, n, rows)
    det = sympy.Matrix(m.data).det()
    if det == 0:
        return
    q = subquotient(SubmodulePresentation.full(ZZ, n), image(m))
    order = 1
    for dfac in q.invariants:
        assert dfac != 0
        order *= dfac
    assert order == abs(det)


# ---------------------------------------------------------------------------
# integer normal forms past 4x4, where coefficient growth shows


def _zz_domain_matrix(rows, ncols):
    return DomainMatrix([[sympy.ZZ(x) for x in row] for row in rows], (len(rows), ncols), sympy.ZZ)


def _sympy_column_hnf(rows, ncols):
    """This package's column Hermite form of a lattice, by sympy.

    sympy's form (Cohen, Algorithm 2.4.5) puts each pivot at the bottom of
    its column and scans rows bottom up; with the rows, and then the
    columns, reversed it is the form here: pivots at the top, pivot rows
    increasing with the column index.
    """
    if not rows or not ncols:
        return []
    w = hermite_normal_form(_zz_domain_matrix(rows[::-1], ncols)).to_Matrix()
    cols = [[int(w[i, j]) for i in reversed(range(w.rows))] for j in reversed(range(w.cols))]
    return [c for c in cols if any(c)]


def _in_column_lattice(rows, ncols, b):
    """Whether b lies in the column lattice of rows, by Smith form alone.

    [m | b] spans a lattice containing that of m; the two are equal iff
    they have the same rank and the same product of invariant factors,
    which is the index of each in its (common) saturation.
    """
    def rank_and_index(dm):
        factors = [int(f) for f in invariant_factors(dm) if f]
        index = 1
        for f in factors:
            index *= f
        return len(factors), index

    if not ncols:
        return not any(b)
    aug = [row + [bv] for row, bv in zip(rows, b)]
    return rank_and_index(_zz_domain_matrix(rows, ncols)) == rank_and_index(
        _zz_domain_matrix(aug, ncols + 1))


def _assert_saturated_kernel(m, k):
    """k is the whole integer kernel of m: m.g = 0 for each generator, the
    rank is cols - rank(m), and the generators span a saturated lattice."""
    for g in k.gens:
        assert not any(m.matvec(list(g)))
    rank_m = _zz_domain_matrix(m.data, m.cols).rank() if m.rows else 0
    assert k.rank == m.cols - rank_m
    if k.rank:
        gens = _zz_domain_matrix([list(g) for g in k.gens], m.cols)
        assert all(f == 1 for f in invariant_factors(gens))


zz_entry_st = st.integers(min_value=-4, max_value=4)
# Mostly zeros, as the rows of Tot's columns and of module bases are.
zz_sparse_entry_st = st.just(0) | st.just(0) | zz_entry_st


def zz_mat_st(entries=zz_entry_st):
    return st.integers(min_value=0, max_value=8).flatmap(
        lambda r: st.integers(min_value=0, max_value=10).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows: Mat(ZZ, r, c, rows))
        )
    )


@settings(max_examples=60, deadline=None)
@given(m=zz_mat_st())
def test_integer_image_matches_sympy_hnf(m):
    assert [list(g) for g in image(m).gens] == _sympy_column_hnf(m.data, m.cols)


def _transpose(cols, nrows):
    return [[c[i] for c in cols] for i in range(nrows)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_hermite_reduce_of_echelon_columns_matches_sympy_hnf(data):
    # _echelon over ZZ stops at a column echelon form.  _reduce over
    # every column gives sympy's Hermite form; over columns lo.. it gives
    # the Hermite form of the echelon columns from lo on, and leaves the
    # others as they were.  Entries past nrows are carried along, so the
    # full columns keep their lattice.
    nrows = data.draw(st.integers(min_value=0, max_value=6))
    length = nrows + data.draw(st.integers(min_value=0, max_value=2))
    cols = data.draw(st.lists(st.lists(zz_entry_st, min_size=length, max_size=length),
                              max_size=7))
    h, pivots = _echelon(ZZ, cols, nrows)
    npiv = len(pivots)
    lo = data.draw(st.integers(min_value=0, max_value=npiv))
    reduced = _reduce(ZZ, list(h), pivots, lo)
    full = _reduce(ZZ, list(h), pivots)

    def hnf(cs, n):  # sympy's Hermite form of the columns cs cut to n entries
        return _sympy_column_hnf(_transpose(cs, n), len(cs))

    assert reduced[:lo] == h[:lo] and reduced[npiv:] == h[npiv:]
    assert [c[:nrows] for c in reduced[lo:npiv]] == hnf(h[lo:npiv], nrows)
    assert [c[:nrows] for c in full[:npiv]] == hnf(cols, nrows)
    assert hnf(full, length) == hnf(cols, length)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(97)], ids=str)
def test_kernel_image_matches_kernel_then_span(ring):
    # One elimination of the rows [A[u] | L[u]], one per unknown u, which
    # reduces only the rows it keeps, spans L(ker A) as a kernel of A
    # mapped by L and spanned does.  Drawn: A zero (no pivot in A's part),
    # A independent on the unknowns (no row kept), and more unknowns than
    # columns (rows that vanish entirely).
    rng = random.Random(7)
    entry = (lambda: rng.randrange(ring.p)) if ring.p else (lambda: rng.randint(-4, 4))
    seen = dict.fromkeys(("zero", "independent", "random", "tall"), 0)
    for _ in range(300):
        kind = rng.choice(("zero", "independent", "random"))
        nsys, nl, nunk = rng.randint(0, 4), rng.randint(1, 4), rng.randint(1, 9)
        if kind == "independent":
            nunk = min(nunk, 5)
            nsys = max(nsys, nunk)
        a = [[0 if kind == "zero" else entry() for _ in range(nsys)] for _ in range(nunk)]
        if kind == "independent":  # unit pivots, in echelon form on the unknowns
            for u, row in enumerate(a):
                row[:u + 1] = [0] * u + [1]
        rows = [row + [entry() for _ in range(nl)] for row in a]
        got = _kernel_image(ring, nsys, rows)
        assert got == kernel_then_span(ring, _transpose(a, nsys), [row[nsys:] for row in rows])
        assert got.rank == 0 or kind != "independent"
        seen[kind] += 1
        seen["tall"] += nunk > nsys + nl
    assert all(seen.values()), seen


@settings(max_examples=60, deadline=None)
@given(m=zz_mat_st())
def test_integer_kernel_is_saturated(m):
    _assert_saturated_kernel(m, kernel(m))


@settings(max_examples=60, deadline=None)
@given(m=zz_mat_st())
def test_integer_oracle_kernel_matches_sympy_nullspace(m):
    # The test oracle's transform kernel is saturated and spans, over QQ,
    # sympy's nullspace: the integer kernel is that space meet Z^cols.
    k = oracle_kernel(m)
    _assert_saturated_kernel(m, k)
    null = _domain_matrix(QQ, m.data, m.cols).nullspace().to_list() if m.rows else [
        [int(i == j) for i in range(m.cols)] for j in range(m.cols)]
    assert scalar_span(QQ, m.cols, k.gens) == scalar_span(
        QQ, m.cols, [[_from_sympy(QQ, y) for y in v] for v in null])
    assert k == kernel(m)


def _ring_mat_st(ring):
    """`zz_mat_st`'s matrices, read in the ring."""
    return zz_mat_st().map(lambda m: Mat(ring, m.rows, m.cols, m.data))


def _sympy_kernel(ring, m):
    """A basis of {x : m.x = 0} over the field, or over QQ for ZZ, by sympy."""
    field = QQ if ring is ZZ else ring
    if not m.rows:
        return [[int(i == j) for i in range(m.cols)] for j in range(m.cols)]
    return [[_from_sympy(field, y) for y in v]
            for v in _domain_matrix(field, m.data, m.cols).nullspace().to_list()]


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(97)], ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_carried_identity_tails_are_a_transform(ring, data):
    # _echelon builds no transform: eliminated on the rows of A, the
    # columns [col_j | e_j] carry one.  Every column's tail v_j has
    # A.v_j equal to its head, and over ZZ the tails are a basis of
    # Z^ncols (unimodular).  A snapshot before row r holds, past its
    # pivots, columns whose tails span the kernel of A cut to rows < r:
    # over every ring sympy's nullspace (over QQ for ZZ), and over ZZ a
    # saturated lattice of that rank, by sympy's Smith form.
    m = data.draw(_ring_mat_st(ring))
    nr, nc = m.rows, m.cols
    snaps = dict.fromkeys(data.draw(st.sets(st.integers(min_value=0, max_value=nr))))
    cols = [[row[j] for row in m.ints] for j in range(nc)]
    h, pivots = _echelon(ring, _with_identity(cols), nr, snaps)
    assert len(h) == nc
    for col in h:
        assert m.matvec(col[nr:]) == col[:nr]
    if nc and ring is ZZ:
        assert abs(sympy.Matrix([col[nr:] for col in h]).det()) == 1
    field = QQ if ring is ZZ else ring
    for r, (k, snapped) in snaps.items():
        assert k == bisect_left(pivots, r)
        assert all(not any(col[:r]) for col in snapped)
        for col in snapped:
            assert m.matvec(col[nr:]) == col[:nr]
        cut = Mat(ring, r, nc, m.data[:r])
        assert scalar_span(field, nc, [col[nr:] for col in snapped]) == scalar_span(
            field, nc, _sympy_kernel(ring, cut))
        if ring is ZZ:
            tails = SubmodulePresentation.span(ZZ, nc, [col[nr:] for col in snapped])
            _assert_saturated_kernel(cut, tails)


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(97)], ids=str)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_snapshot_cut_is_spanned_by_the_pivot_vectors_in_the_cut(ring, data):
    # _echelon never changes a pivot vector once chosen, and its later
    # steps are invertible on the vectors past it.  So the snapshot at c,
    # k = bisect_left(pivots, c) vectors in, spans what the final vectors
    # from k on span; cut to [c, c + w) within the limit, the vectors past
    # the pivots and those with pivots from c + w on vanish, and the pivot
    # vectors with pivots in [c, c + w), cut and reduced, are the
    # canonical form of that span.
    m = data.draw(_ring_mat_st(ring))
    limit = data.draw(st.integers(min_value=0, max_value=m.cols))
    c = data.draw(st.integers(min_value=0, max_value=limit))
    w = data.draw(st.integers(min_value=0, max_value=limit - c))
    snaps = {c: None}
    vecs, pivots = _echelon(ring, m.ints, limit, snaps)
    k, snapped = snaps[c]
    assert k == bisect_left(pivots, c)
    end = bisect_left(pivots, c + w)
    cut = [c0 - c for c0 in pivots[k:end]]
    rows = ring.primitive(_reduce(ring, [v[c:c + w] for v in vecs[k:end]], cut), cut)
    assert SubmodulePresentation.span(ring, w, [v[c:c + w] for v in snapped]) == (
        SubmodulePresentation(ring, w, rows, cut, _canonical=True))


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(2), GF(97)], ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_elimination_never_changes_its_input(ring, data):
    # Callers pass vectors that others hold, such as Tot's stored columns
    # and a module's rows: _echelon copies the outer list and replaces the
    # vectors it changes, so neither the input nor a snapshot changes, and
    # _reduce replaces, in the list it is given, the vectors it reduces.
    m = data.draw(_ring_mat_st(ring))
    vecs = m.ints
    if ring is ZZ:
        # The integer steps copy a vector before they update it on the
        # pivot's support: draw zero-heavy rows too, and tuple rows, as
        # `br` (b.rows + tuple(values)) and `subquotient` (b.rows + z.rows)
        # pass them.
        if data.draw(st.booleans()):
            m = data.draw(zz_mat_st(zz_sparse_entry_st))
        vecs = tuple(tuple(row) if data.draw(st.booleans()) else row for row in m.ints)
    given_vecs = copy.deepcopy(vecs)
    limit = data.draw(st.integers(min_value=0, max_value=m.cols))
    snaps = data.draw(st.none() | st.sets(st.integers(min_value=0, max_value=limit)).map(
        dict.fromkeys))
    out, pivots = _echelon(ring, vecs, limit, snaps)
    assert out is not vecs and vecs == given_vecs
    held = list(out)
    held_copy = copy.deepcopy(held)
    snapped = copy.deepcopy(snaps)
    lo = data.draw(st.integers(min_value=0, max_value=len(pivots)))
    assert _reduce(ring, out, pivots, lo) is out
    assert vecs == given_vecs and held == held_copy and snaps == snapped


def _sparse_int_vecs(data, width, c, leads):
    """One integer vector of the given width per entry of leads, at least
    half zeros and zero at every position before c, each a list or a
    tuple; nonzero at c where its lead is true."""
    vecs = []
    for lead in leads:
        vec = [0] * width
        support = data.draw(st.sets(st.integers(min_value=c, max_value=width - 1),
                                    max_size=width // 2 - lead))
        for i in support | ({c} if lead else set()):
            vec[i] = data.draw(st.integers(min_value=-9, max_value=9).filter(bool))
        vecs.append(tuple(vec) if data.draw(st.booleans()) else vec)
    return vecs


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_integer_steps_match_their_dense_oracles(data):
    # Over ZZ, `clear`'s Euclid rounds, `reduce_at` and `_coords_in_hnf`
    # update only the positions where the pivot vector is nonzero, at or
    # past its pivot.  Since x - q.0 = x, they return the vectors the
    # dense steps return, entry by entry, and change no vector they are
    # given.
    width = data.draw(st.integers(min_value=2, max_value=12))
    c = data.draw(st.integers(min_value=0, max_value=width - 1))
    leads = data.draw(st.lists(st.booleans(), min_size=1, max_size=6))
    vecs = _sparse_int_vecs(data, width, c, [True, *leads])
    given_vecs = copy.deepcopy(vecs)
    active = [i for i, v in enumerate(vecs) if v[c]]
    mine, dense = list(vecs), [list(v) for v in vecs]
    assert ZZ.clear(mine, list(active), c) == dense_clear(dense, list(active), c)
    assert [list(v) for v in mine] == dense and vecs == given_vecs

    # reduce_at: a pivot vector of `clear` (zero before c, positive at c)
    # and any sparse vectors above it.
    above = _sparse_int_vecs(data, width, 0, [False] * len(leads))
    pv = _sparse_int_vecs(data, width, c, [True])[0]
    if pv[c] < 0:
        pv = [-x for x in pv]
    vecs = above + [pv]
    given_vecs = copy.deepcopy(vecs)
    lo = data.draw(st.integers(min_value=0, max_value=len(above)))
    mine = list(vecs)
    ZZ.reduce_at(mine, lo, len(above), c)
    assert [list(v) for v in mine[lo:-1]] == [list(dense_reduce_at(v, pv, c)) for v in above[lo:]]
    assert mine[:lo] == vecs[:lo] and mine[-1] is pv and vecs == given_vecs

    # _coords_in_hnf: columns zero before their strictly increasing pivot
    # rows and positive there, and a vector in their lattice or any vector.
    pivot_rows = sorted(data.draw(st.sets(st.integers(min_value=0, max_value=width - 1),
                                          max_size=width // 2)))
    cols = []
    for r in pivot_rows:
        col = _sparse_int_vecs(data, width, r, [True])[0]
        cols.append(col if col[r] > 0 else type(col)(-x for x in col))
    if data.draw(st.booleans()):
        coefs = data.draw(st.lists(zz_entry_st, min_size=len(cols), max_size=len(cols)))
        vec = [sum(a * col[i] for a, col in zip(coefs, cols)) for i in range(width)]
    else:
        vec = _sparse_int_vecs(data, width, 0, [False])[0]
    given_vec = copy.deepcopy(vec)
    assert _coords_in_hnf(cols, pivot_rows, vec) == dense_coords_in_hnf(cols, pivot_rows, vec)
    assert vec == given_vec


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_snf_carries_lifts_by_the_inverse_transpose(data):
    # Each row operation E of the Smith pass is applied to the lifts as
    # E^{-T}, so U^T times the lifts returned is the lifts given, and U
    # and D are those of the pass that carries none.
    m = data.draw(zz_mat_st(zz_sparse_entry_st) | zz_mat_st())
    width = data.draw(st.integers(min_value=0, max_value=6))
    lifts0 = [tuple(data.draw(st.lists(zz_entry_st, min_size=width, max_size=width)))
              for _ in range(m.rows)]
    lifts = list(lifts0)
    u, d = snf(m, lifts)
    assert (u, d) == snf(m)
    for j, row in enumerate(lifts0):
        assert [sum(u.ints[i][j] * lifts[i][c] for i in range(m.rows))
                for c in range(width)] == list(row)


@st.composite
def zz_low_rank_mat_st(draw):
    """The product of an r x k and a k x c integer matrix, k <= 2: rank at most 2."""
    r, k, c = (draw(st.integers(min_value=0, max_value=n)) for n in (8, 2, 10))
    a = [draw(st.lists(zz_entry_st, min_size=k, max_size=k)) for _ in range(r)]
    b = [draw(st.lists(zz_entry_st, min_size=c, max_size=c)) for _ in range(k)]
    return Mat(ZZ, r, c, [[sum(x * y[j] for x, y in zip(row, b)) for j in range(c)] for row in a])


def _assert_snf_matches_separate_u(m, lifts0):
    given_ints = copy.deepcopy(m.ints)
    lifts, oracle_lifts = list(lifts0), list(lifts0)
    expected = separate_u_snf(m)
    assert snf(m) == expected
    assert snf(m, lifts) == separate_u_snf(m, oracle_lifts) == expected
    assert lifts == oracle_lifts
    assert m.ints == given_ints


# Every branch of the Smith pass: both row and both column steps, a row and
# a column swap, the row_bad fix-up and the sign flip.
@pytest.mark.parametrize("rows", [[[2, 0], [0, 3]], [[2], [3]], [[-2]],
                                  [[0, -2, 6], [0, 0, 0], [0, 2, 1], [2, -2, 2]]])
def test_snf_fixed_cases_match_the_separate_u_oracle(rows):
    m = Mat(ZZ, len(rows), len(rows[0]), rows)
    _assert_snf_matches_separate_u(m, [[i, -1, 2 * i] for i in range(m.rows)])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_snf_matches_the_separate_u_oracle(data):
    # U rides as the tails of [row_i | e_i]: it, D and the lifts equal those
    # of the pass that keeps U apart and updates it in place, entry for entry.
    m = data.draw(zz_mat_st(zz_sparse_entry_st) | zz_mat_st() | zz_low_rank_mat_st())
    width = data.draw(st.integers(min_value=0, max_value=4))
    lifts0 = [tuple(data.draw(st.lists(zz_entry_st, min_size=width, max_size=width)))
              for _ in range(m.rows)]
    _assert_snf_matches_separate_u(m, lifts0)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_integer_quotients_match_the_hermite_inverse_oracle(data):
    # subquotient over ZZ reads its generators off the lifts the Smith
    # pass carries; the oracle inverts U by a Hermite form and sums the
    # lifts.  U^{-1} is unique, so invariants, gens and reduce agree.
    n = data.draw(st.integers(min_value=1, max_value=7))
    vec = st.lists(zz_sparse_entry_st, min_size=n, max_size=n)
    z = SubmodulePresentation.span(ZZ, n, data.draw(st.lists(vec, max_size=6)))
    coefs = st.lists(zz_entry_st, min_size=z.rank, max_size=z.rank)

    def combination(cs):
        return [sum(c * g[i] for c, g in zip(cs, z.rows)) for i in range(n)]

    b = SubmodulePresentation.span(ZZ, n, [combination(cs) for cs in data.draw(
        st.lists(coefs, max_size=5))])
    q = subquotient(z, b)
    invariants, gens, reduce = hermite_inverse_subquotient(z, b)
    assert (q.invariants, q.gens) == (invariants, gens)
    for cs in data.draw(st.lists(coefs, min_size=1, max_size=4)):
        x = combination(cs)
        assert q.reduce(x) == reduce(x)


def test_integer_quotients_by_zero_keep_no_transform():
    # With b = 0 the Smith pass runs no row operation: U is the identity,
    # the quotient keeps none of its rows, and reduce returns the
    # coordinates in z's Hermite basis.
    rng = random.Random(0)
    for n in range(1, 6):
        for _ in range(10):
            z = SubmodulePresentation.span(ZZ, n, [[rng.randint(-4, 4) for _ in range(n)]
                                                   for _ in range(rng.randint(1, n))])
            q = subquotient(z, SubmodulePresentation.zero(ZZ, n))
            assert q._data[2] is None and q.invariants == (0,) * z.rank
            for _ in range(5):
                cs = [rng.randint(-9, 9) for _ in range(z.rank)]
                x = [sum(c * g[i] for c, g in zip(cs, z.rows)) for i in range(n)]
                assert q.reduce(x) == tuple(_coords_in_hnf(z.rows, z.pivots, x))


@pytest.mark.parametrize("bcols, identity", [
    ([[2, 0, 0], [0, 4, 0]], True),  # diagonal, 2 | 4: no row operation
    ([[2, 0, 0], [0, 3, 0]], False),  # the gcd step moves rows
    ([[1, 0, 0], [0, 2, 0]], False),  # the unit factor's row is dropped
], ids=["diag-2-4", "diag-2-3", "unit"])
def test_integer_quotients_keep_u_rows_unless_u_is_the_identity(bcols, identity):
    z = SubmodulePresentation.full(ZZ, 3)
    b = SubmodulePresentation.span(ZZ, 3, bcols)
    q = subquotient(z, b)
    assert (q._data[2] is None) == identity
    _, _, reduce = hermite_inverse_subquotient(z, b)
    for x in ([1, 1, 1], [3, -5, 7], [-2, 9, 0]):
        assert q.reduce(x) == reduce(x)


def test_integer_quotients_take_no_echelon(monkeypatch):
    # Over ZZ the quotient's generators come off the Smith pass: no
    # Hermite elimination inverts U, whether b is zero, torsion or free
    # of rank less than z's.  Over QQ the same counter sees the RREF.
    import mcss.linalg as linalg

    calls = []
    real = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon", lambda *a, **k: calls.append(1) or real(*a, **k))
    z = SubmodulePresentation.full(ZZ, 3)
    for bcols in ([], [[2, 0, 0], [0, 6, 4]], [[1, 1, 0]]):
        b = SubmodulePresentation.span(ZZ, 3, bcols)
        calls.clear()
        subquotient(z, b)
        assert not calls, bcols
    subquotient(SubmodulePresentation.full(QQ, 2), SubmodulePresentation.zero(QQ, 2))
    assert calls


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_solve_matches_smith_membership(data):
    m = data.draw(zz_mat_st())
    if data.draw(st.booleans()):
        # An element of the lattice, so that both outcomes are drawn often.
        coefs = data.draw(st.lists(zz_entry_st, min_size=m.cols, max_size=m.cols))
        b = m.matvec(coefs)
    else:
        b = data.draw(st.lists(zz_entry_st, min_size=m.rows, max_size=m.rows))
    x = solve(m, b)
    if _in_column_lattice(m.data, m.cols, b):
        assert x is not None and m.matvec(x) == b
        # Reduced at the free columns: with m's columns reversed, the
        # canonical kernel row with pivot c and pivot entry h leaves the
        # entry of x at column m.cols - 1 - c in [0, h).
        rev = Mat(ZZ, m.rows, m.cols, [row[::-1] for row in m.data])
        k = kernel(rev)
        for g, c in zip(k.rows, k.pivots):
            assert 0 <= x[m.cols - 1 - c] < g[c]
    else:
        assert x is None


def test_dense_integer_elimination_stays_small():
    # 33 random columns of length 30: the first-nonzero pivot with 2x2
    # gcd steps ran for minutes here, its coefficients growing without
    # bound.  Euclid across the row takes hundredths of a second.
    rng = random.Random(30)
    cols = [[rng.randint(-3, 3) for _ in range(30)] for _ in range(33)]
    m = Mat(ZZ, 30, len(cols), [list(row) for row in zip(*cols)])

    def timed(f, *args):
        start = time.perf_counter()
        out = f(*args)
        assert time.perf_counter() - start < 2.0
        return out

    k = timed(kernel, m)
    assert max(abs(x).bit_length() for g in k.gens for x in g) <= 128
    _assert_saturated_kernel(m, k)
    assert timed(image, m).rank == 30
    b = m.matvec([1] * 33)
    x = timed(solve, m, b)
    assert x is not None and m.matvec(x) == b
    assert max(abs(v).bit_length() for v in x) <= 128


# ---------------------------------------------------------------------------
# the ring layer: row arithmetic against per-entry ring arithmetic

LAYER_RINGS = [QQ, ZZ, GF(2), GF(97)]


def _is_canonical(ring, values):
    """Fractions over QQ, residues in [0, p) over GF(p), ints over ZZ."""
    if ring.kind == "Q":
        return all(type(v) is Fraction for v in values)
    return all(type(v) is int and (not ring.p or 0 <= v < ring.p) for v in values)


def _dot(ring, u, v):
    return ring.normalize(sum(a * b for a, b in zip(u, v)))


def _assert_mat(ring, m, rows, cols, expected):
    assert (m.rows, m.cols) == (rows, cols)
    assert len(m.data) == rows and all(len(row) == cols for row in m.data)
    assert m.data == expected
    assert all(_is_canonical(ring, row) for row in m.data)
    built = Mat(ring, rows, cols, expected)  # the same matrix, from scalars
    assert m == built and repr(m) == repr(built)


@pytest.mark.parametrize("ring", LAYER_RINGS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_row_arithmetic_matches_entrywise(ring, data):
    entry = field_entry_st(ring) if ring.is_field else scalar_st
    dim = st.integers(min_value=0, max_value=3)
    r, k, c = data.draw(dim), data.draw(dim), data.draw(dim)

    def grid(nr, nc):
        return data.draw(st.lists(st.lists(entry, min_size=nc, max_size=nc),
                                  min_size=nr, max_size=nr))

    a, a2 = Mat(ring, r, k, grid(r, k)), Mat(ring, r, k, grid(r, k))
    b = Mat(ring, k, c, grid(k, c))
    u, v = grid(2, k)
    # Integer rows over a denominator read as the scalars they stand for.
    ints = data.draw(st.lists(st.lists(scalar_st, min_size=k, max_size=k),
                              min_size=r, max_size=r))
    den = data.draw(st.integers(min_value=1, max_value=12)) if ring is QQ else 1
    _assert_mat(ring, Mat.from_ints(ring, r, k, ints, den), r, k,
                [[ring.normalize(Fraction(x, den)) for x in row] for row in ints])

    out = a.matvec(u)
    assert out == [_dot(ring, row, u) for row in a.data] and _is_canonical(ring, out)
    _assert_mat(ring, a.mul(b), r, c, [[_dot(ring, row, col) for col in b.to_cols()]
                                       for row in a.data])
    _assert_mat(ring, a.add(a2), r, k, [[ring.normalize(x + y) for x, y in zip(r1, r2)]
                                        for r1, r2 in zip(a.data, a2.data)])
    _assert_mat(ring, a.neg(), r, k, [[ring.neg(x) for x in row] for row in a.data])
    for got, want in [
        (vec_add(ring, u, v), [ring.normalize(x + y) for x, y in zip(u, v)]),
        (vec_sub(ring, u, v), [ring.normalize(x - y) for x, y in zip(u, v)]),
    ]:
        assert got == want and _is_canonical(ring, got)


@pytest.mark.parametrize("ring", LAYER_RINGS, ids=str)
def test_products_through_empty_shapes(ring):
    zero = ring.zero()
    _assert_mat(ring, _zeros(ring, 2, 0).mul(_zeros(ring, 0, 3)), 2, 3, [[zero] * 3] * 2)
    _assert_mat(ring, _zeros(ring, 0, 2).mul(_identity(ring, 2)), 0, 2, [])
    _assert_mat(ring, _identity(ring, 2).mul(_zeros(ring, 2, 0)), 2, 0, [[], []])
    assert _zeros(ring, 2, 0).matvec([]) == [zero, zero]
    assert _zeros(ring, 0, 2).matvec([ring.normalize(1), zero]) == []
    # No rows: every column is free.  No columns: nothing is spanned.
    assert kernel(_zeros(ring, 0, 2)) == SubmodulePresentation.full(ring, 2)
    im = image(_zeros(ring, 2, 0))
    assert (im.rank, im.ambient_rank) == (0, 2)
    assert solve(_zeros(ring, 0, 2), []) == [zero, zero]
    assert solve(_zeros(ring, 2, 0), [0, 0]) == []
    assert solve(_zeros(ring, 2, 0), [1, 0]) is None


@pytest.mark.parametrize("ring", LAYER_RINGS, ids=str)
def test_span_checks_the_length_of_every_generator(ring):
    # A zero generator of the wrong length is refused like a nonzero one.
    for gens in ([[0, 0]], [[1, 0]], [[1, 0, 0], [0, 0, 0, 0]]):
        with pytest.raises(ValueError, match="generator length"):
            SubmodulePresentation.span(ring, 3, gens)
    assert SubmodulePresentation.span(ring, 3, [[0, 0, 0]]) == SubmodulePresentation.zero(ring, 3)


def test_mat_stores_integer_rows_over_the_least_denominator():
    m = Mat(QQ, 1, 2, [[Fraction(1, 2), Fraction(1, 3)]])
    assert (m.ints, m.den) == ([[3, 2]], 6)
    assert Mat.from_ints(QQ, 1, 2, [[9, 6]], 18) == m
    wrapped = Mat.from_ints(QQ, 1, 2, [[1, 2]])
    assert wrapped.data == [[Fraction(1), Fraction(2)]] and _is_canonical(QQ, wrapped.data[0])
    assert Mat.from_ints(GF(97), 1, 2, [[-1, 98]]) == Mat(GF(97), 1, 2, [[96, 1]])
    assert Mat(ZZ, 1, 1, [[Fraction(4)]]).ints == [[4]]


def test_rational_products_keep_fractions():
    half = Fraction(1, 2)
    m = Mat(QQ, 2, 2, [[half, Fraction(1, 3)], [0, 2]])
    assert m.matvec([Fraction(2, 5), 3]) == [Fraction(6, 5), Fraction(6)]
    assert m.mul(m).data == [[Fraction(1, 4), Fraction(5, 6)], [Fraction(0), Fraction(4)]]


def test_rings_are_interned():
    assert GF(97) is GF(97) and Ring("F", 97) is GF(97)
    assert Ring("Q") is QQ and Ring("Z") is ZZ
    assert GF(2) is not GF(97) and QQ is not ZZ and QQ != ZZ
    with pytest.raises(ValueError):
        Ring("F", 6)
    assert ("F", 6) not in rings._RINGS
    assert Ring("F", 5) is GF(5) and GF(5).normalize(-3) == 2
    fresh = GF(10007)
    assert fresh is Ring("F", 10007) and fresh.normalize(-1) == 10006
    assert pickle.loads(pickle.dumps(GF(97))) is GF(97) and copy.deepcopy(QQ) is QQ
