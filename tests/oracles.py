"""Test-only oracles: the class map psi from the total complex to the
witness route, and the lift of a witness-route cycle back to Tot.

Each builds its own `SpectralPages`, so they check the engines from the
outside; no engine calls them.
"""

from mcss.linalg import MembershipError, vec_sub
from mcss.multicomplex import Multicomplex
from mcss.pages import SpectralPages
from mcss.total import FilteredVector, TotalComplex


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
