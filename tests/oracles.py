"""Test-only oracles: the paper's full cycle and boundary systems, the
class map psi from the total complex to the witness route, and the lift
of a witness-route cycle back to Tot.

The full systems are assembled from a `SpectralPages`'s multicomplex, and
psi and the lift build their own engine, so they check the engines from
the outside; no engine calls them.
"""

from mcss.linalg import Mat, MembershipError, kernel, vec_sub
from mcss.multicomplex import Multicomplex
from mcss.pages import CoWitnessTuple, SpectralPages
from mcss.total import FilteredVector, TotalComplex


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
    return Mat._raw(ring, len(grid), offs[-1], grid), offs


def cycle_system(sp: SpectralPages, r, p, q):
    """Rows 0 <= n < r of the cycle system on (x, z_1, ..., z_{r-1})."""
    widths = [sp.c.rank(p - j, q + j) for j in range(r)]
    return _assemble(sp.c.ring, widths, [sp._cycle_row(n, p, q) for n in range(r)])


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
        for g in kernel(mat).gens
    ]


def psi(t: TotalComplex, c: Multicomplex, r, p, n, x: FilteredVector):
    """The class of (x)_p on the witness side, for x an r-cycle on Tot."""
    dx = t.d(n).matvec(list(x.coords))
    if any(x.coords[:t.filtration_start(n, p)]) or any(dx[:t.filtration_start(n - 1, p - r)]):
        raise MembershipError("element does not lie in the filtered cycle module")
    start, width = t.block_start(n, p)
    local = [] if start is None else list(x.coords[start:start + width])
    return SpectralPages(c).entry(r, p, n - p).quot.reduce(local)


def lift_to_total(c: Multicomplex, t: TotalComplex, r, p, q, x) -> FilteredVector:
    """x - z_{p-1} - ... - z_{p-r+1} as a filtered r-cycle on Tot.

    Uses the canonical witnesses; psi checks membership in the filtered
    cycle module, and must carry the lift back to [x].
    """
    ring, n = t.ring, p + q
    x = [ring.normalize(v) for v in x]
    sp = SpectralPages(c)
    vec = list(t.embed_block(n, p, x).coords)
    if r >= 2:
        wit = sp.witness(r, p, q, x)
        for j in range(1, r):
            zj = wit.z.get(j, [])
            if any(zj):
                vec = vec_sub(ring, vec, t.embed_block(n, p - j, zj).coords)
    lift = FilteredVector(n, tuple(vec))
    want = sp.entry(r, p, q).quot.reduce(x)
    assert psi(t, c, r, p, n, lift) == want, "psi does not invert the lift"
    return lift
