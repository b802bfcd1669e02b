"""Multicomplex validation and MCX serialization."""

from fractions import Fraction
from pathlib import Path

import pytest

from mcss.builders import WallParams, hurtubise, staircase, wall
from mcss.linalg import Mat
from mcss.mcxio import MCXParseError, emit, parse
from mcss.multicomplex import Multicomplex, rebase
from mcss.rings import GF, QQ, ZZ


def test_builders_validate_clean():
    for c in (staircase(2), staircase(5), hurtubise(3), hurtubise(4)):
        assert c.validate() == []


def test_validate_catches_sign_flip():
    # Flip the sign of one d_0 component of the short staircase and add a
    # d_2 that no longer cancels: d_1 d_0 + d_0 d_1 stays zero (composites
    # land in empty cells), so corrupt a composable pair instead.
    c = hurtubise(3, QQ)
    maps = dict(c.maps)
    maps[(0, 1, 1)] = maps[(0, 1, 1)].neg()  # d_0 on the middle column
    broken = Multicomplex(QQ, dict(c.ranks), maps)
    violations = broken.validate()
    assert violations == []  # d_1 d_0 and d_0 d_1 still land in rank-0 cells

    # Flipping the sign of d_1 on the short staircase leaves a bicomplex.
    c = staircase(2, QQ)
    flipped_maps = dict(c.maps)
    flipped_maps[(1, 1, 1)] = flipped_maps[(1, 1, 1)].neg()
    cflip = Multicomplex(QQ, dict(c.ranks), flipped_maps)
    assert cflip.validate() == []  # still a bicomplex

    bad = broken_c2().validate()
    assert bad and bad[0].n == 1 and (bad[0].a, bad[0].b) == (1, 1)


def broken_c2():
    """A genuinely broken relation: n=1 at (1,1), where d_0 d_1 + d_1 d_0 != 0."""
    ranks = {(2, 0): 1, (1, 0): 1, (1, 1): 1, (0, 1): 1, (0, 0): 1}
    maps = {
        (1, 2, 0): Mat(QQ, 1, 1, [[1]]),
        (0, 1, 1): Mat(QQ, 1, 1, [[1]]),
        (1, 1, 1): Mat(QQ, 1, 1, [[1]]),
        (0, 0, 1): Mat(QQ, 1, 1, [[1]]),
    }
    return Multicomplex(QQ, ranks, maps)


def broken_twice(ring):
    """Two broken relations: n=0 at (0,2), where d_0 d_0 != 0, and n=1 at
    (1,1), where d_0 d_1 + d_1 d_0 != 0; over QQ every map is fractional."""
    frac = ring is QQ
    entries = {
        (0, 0, 2): Fraction(1, 2) if frac else 1,
        (0, 0, 1): Fraction(2, 3) if frac else 1,
        (1, 1, 1): Fraction(1, 2) if frac else 1,
        (0, 1, 1): Fraction(1, 3) if frac else 1,
        (1, 1, 0): Fraction(1, 2) if frac else 1,
    }
    ranks = {(0, 0): 1, (0, 1): 1, (0, 2): 1, (1, 0): 1, (1, 1): 1}
    return Multicomplex(ring, ranks, {k: Mat(ring, 1, 1, [[v]]) for k, v in entries.items()})


def test_validate_runs_once_and_returns_fresh_lists(monkeypatch):
    c = broken_c2()
    first = c.validate()
    calls = []
    monkeypatch.setattr("mcss.multicomplex.vanishes", lambda *a: calls.append(a))
    first.clear()  # the caller's list: the memo keeps its own
    again = c.validate()
    assert again and again == c.validate() and again is not c.validate()
    assert calls == []
    valid = staircase(3)
    assert valid.validate() == [] and valid.validate() is not valid.validate()


@pytest.mark.parametrize("ring, d0, d1, bad", [
    (QQ, (Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 2), Fraction(-1)), Fraction(-1, 2)),
    (GF(3), (1, 1), (1, 2), 1),
    (ZZ, (3, 2), (6, -4), 4),
])
def test_validate_one_product_per_relation(ring, d0, d1, bad):
    # d_0 d_1 + d_1 d_0 = 0 on the square (1,1) -> (1,0), (0,1) -> (0,0)
    # holds only across the two terms: over Q with different denominators,
    # over F_3 mod 3.  Changing one factor breaks it, with the composite
    # sum of both terms reported.
    ranks = {(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1}

    def square(d1_10):
        return Multicomplex(ring, ranks, {
            (0, 1, 1): Mat(ring, 1, 1, [[d0[0]]]), (0, 0, 1): Mat(ring, 1, 1, [[d0[1]]]),
            (1, 1, 1): Mat(ring, 1, 1, [[d1[0]]]), (1, 1, 0): Mat(ring, 1, 1, [[d1_10]])})

    assert square(d1[1]).validate() == []
    c = square(bad)
    ((n, a, b, composite),) = c.validate()
    assert (n, a, b) == (1, 1, 1)
    want = c.dmap(0, 0, 1).mul(c.dmap(1, 1, 1)).add(c.dmap(1, 1, 0).mul(c.dmap(0, 1, 1)))
    assert composite == want and not composite.is_zero()


def test_validate_wall_truncation():
    assert wall(WallParams(3, 2, 2, 8)).validate() == []


def test_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Multicomplex(QQ, {(0, 0): 1}, {(0, 1, 1): Mat(QQ, 1, 1, [[1]])})
    with pytest.raises(ValueError):
        Multicomplex(QQ, {(0, 0): 0}, {})
    with pytest.raises(ValueError):
        # nonzero map needs a declared target of matching rank
        Multicomplex(QQ, {(1, 1): 1}, {(0, 1, 1): Mat(QQ, 1, 1, [[1]])})


# ---------------------------------------------------------------------------
# MCX


def test_parse_minimal():
    c = parse("mcx 1\nring Q\n")
    assert c.ranks == {} and c.maps == {}
    assert c.ring == QQ


def test_roundtrip_examples():
    for c in (staircase(3), hurtubise(4, QQ), wall(WallParams(3, 2, 2, 4))):
        text = emit(c)
        again = parse(text)
        assert again == c
        assert emit(again) == text  # canonical form is a fixed point


def test_parse_accepts_comments_and_order():
    text = """
# a comment
mcx 1
ring F 5
map 0 1 1 : 2   # trailing comment
module 1 1 1
module 1 0 1
"""
    c = parse(text)
    assert c.rank(1, 1) == 1 and c.dmap(0, 1, 1).data == [[2]]


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("mcx 2\nring Q\n", "mcx 1"),
        ("mcx 1\n", "ring"),
        ("mcx 1\nring X\n", "ring"),
        ("mcx 1\nring F 6\n", "prime"),
        ("mcx 1\nring Q\nmodule 0 0 0\n", "rank"),
        ("mcx 1\nring Q\nmodule 0 0 1\nmodule 0 0 2\n", "duplicate"),
        ("mcx 1\nring Q\nmodule 0 0 1\nmodule 0 1 1\nmap 0 0 1 : 1\nmap 0 0 1 : 2\n", "duplicate"),
        ("mcx 1\nring Q\nmodule 0 1 1\nmap 0 1 0 : 1\n", "undeclared"),
        ("mcx 1\nring Q\nmodule 0 1 1\nmodule 0 0 1\nmap 0 0 1 : 1 2\n", "entries"),
        ("mcx 1\nring Q\nmodule 0 1 1\nmodule 0 0 1\nmap 0 0 1 : 1/0\n", "denominator"),
        ("mcx 1\nring Z\nmodule 0 1 1\nmodule 0 0 1\nmap 0 0 1 : 1/2\n", "not allowed"),
        ("mcx 1\nring Q\nmodule 0 0 1\nwhatever\n", "unrecognized"),
        ("mcx 1\nring Q\nmodule 0 0 1\nmap 0 0 0 : 1\n", "absent"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(MCXParseError) as exc:
        parse(text)
    assert fragment in str(exc.value)


def test_parse_error_reports_line_number():
    text = "mcx 1\nring Q\nmodule 0 0 1\nmodule 0 0 1\n"
    with pytest.raises(MCXParseError) as exc:
        parse(text)
    assert exc.value.line == 4


def test_parse_rejects_rank_above_ceiling():
    from mcss.mcxio import MAX_RANK

    assert parse(f"mcx 1\nring Z\nmodule 0 0 {MAX_RANK}\n").ranks == {(0, 0): MAX_RANK}
    for rank in (MAX_RANK + 1, 100000000):
        text = f"mcx 1\nring Z\nmodule 0 1 1\nmodule 0 0 {rank}\n"
        with pytest.raises(MCXParseError) as exc:
            parse(text)
        assert exc.value.line == 4
        assert str(MAX_RANK) in str(exc.value)


def test_emit_drops_zero_maps():
    ranks = {(0, 1): 1, (0, 0): 1}
    maps = {(0, 0, 1): Mat(QQ, 1, 1, [[0]])}
    c = Multicomplex(QQ, ranks, maps)
    assert "map" not in emit(c)


def test_rational_entries_roundtrip():
    text = "mcx 1\nring Q\nmodule 0 0 1\nmodule 0 1 1\nmap 0 0 1 : -3/2\n"
    c = parse(text)
    assert emit(c) == "mcx 1\nring Q\nmodule 0 0 1\nmodule 0 1 1\nmap 0 0 1 : -3/2\n"


# ---------------------------------------------------------------------------
# rebasing


def test_rebase_rules():
    c = staircase(2, ZZ)
    cq = rebase(c, QQ)
    assert cq.ring == QQ and cq.validate() == []
    cf = rebase(c, GF(2))
    assert cf.ring == GF(2) and cf.validate() == []

    frac = parse("mcx 1\nring Q\nmodule 0 0 1\nmodule 0 1 1\nmap 0 0 1 : 1/2\n")
    with pytest.raises(ValueError):
        rebase(frac, ZZ)
    with pytest.raises(ValueError):
        rebase(frac, GF(2))  # denominator divisible by p
    assert rebase(frac, GF(3)).dmap(0, 0, 1).data == [[2]]  # 1/2 = 2 mod 3


# ---------------------------------------------------------------------------
# entry normalization, pinned


def _one_map(ring, body):
    return f"mcx 1\nring {ring}\nmodule 0 0 1\nmodule 0 1 2\nmap 0 0 1 : {body}\n"


def test_parse_normalizes_residues_mod_p():
    c = parse(_one_map("F 97", "-1 98"))
    assert c.dmap(0, 0, 1).data == [[96, 1]]
    assert emit(c) == _one_map("F 97", "96 1")
    c = parse(_one_map("F 97", "97 0"))
    assert c.maps == {} and "map" not in emit(c)  # 97 = 0 mod 97: a zero map is dropped


def test_parse_signed_integers():
    c = parse(_one_map("Z", "+3 -0"))
    assert c.dmap(0, 0, 1).data == [[3, 0]]
    assert emit(c) == _one_map("Z", "3 0")


def test_parse_reduces_rationals():
    c = parse(_one_map("Q", "2/4 -6/3"))
    assert c.dmap(0, 0, 1).data == [[Fraction(1, 2), Fraction(-2)]]
    assert emit(c) == _one_map("Q", "1/2 -2")
    for body, want in (("+4 -0", [4, 0]), ("3 2/4", [3, Fraction(1, 2)])):
        row = parse(_one_map("Q", body)).dmap(0, 0, 1).data[0]
        assert row == want and all(type(x) is Fraction for x in row)


@pytest.mark.parametrize("ring, body, message", [
    ("Z", "1 1/2", "line 5: rational entry '1/2' not allowed over Z"),
    ("F 97", "1/2 1", "line 5: rational entry '1/2' not allowed over F 97"),
    ("Q", "1 1/0", "line 5: zero denominator in '1/0'"),
    ("Z", "1 x", "line 5: invalid literal for int() with base 10: 'x'"),
    ("F 2", "1.5 1", "line 5: invalid literal for int() with base 10: '1.5'"),
])
def test_parse_entry_errors_keep_text_and_line(ring, body, message):
    with pytest.raises(MCXParseError) as exc:
        parse(_one_map(ring, body))
    assert str(exc.value) == message and exc.value.line == 5


@pytest.mark.parametrize("path", sorted((Path(__file__).parent / "golden").glob("*.mcx"))
                         + [Path(__file__).parent / "data" / "dense_z_s2.mcx"],
                         ids=lambda p: p.name)
def test_emit_parse_fixed_point_on_corpus(path):
    text = path.read_text()
    assert emit(parse(text)) == text
