"""MCX: a line-oriented text serialization of multicomplexes.

    mcx 1
    ring Q | ring F <p> | ring Z
    module <a> <b> <rank>
    map <i> <a> <b> : e11 e12 ... ; e21 ... ; ...

'#' starts a comment, blank lines are ignored, declaration order is free.
The ring line's name is read by `rings.parse_ring`, as `--ring` is.
Each integer entry is converted by one int() (mod p over F_p).
Emission is canonical: modules then maps, each sorted lexicographically,
zero matrices omitted; emit(parse(emit(c))) == emit(c).
"""

from __future__ import annotations

from .linalg import Mat
from .multicomplex import Multicomplex
from .rings import parse_ring


# The largest module rank a `module` line may declare.  Pages start from
# dense rank x rank matrices (the full module at r = 0), so an unchecked
# typo would allocate without bound; benchmark and golden cells have rank
# at most 13.
MAX_RANK = 1000


class MCXParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
        if line:
            yield lineno, line


def parse(text: str) -> Multicomplex:
    lines = list(_significant_lines(text))
    if not lines:
        raise MCXParseError(0, "empty file")
    pos = 0

    lineno, header = lines[pos]
    if header.split() != ["mcx", "1"]:
        raise MCXParseError(lineno, f"expected 'mcx 1' header, got {header!r}")
    pos += 1

    if pos >= len(lines):
        raise MCXParseError(lineno, "missing ring declaration")
    lineno, ringline = lines[pos]
    pos += 1
    toks = ringline.split()
    if toks[0] != "ring":
        raise MCXParseError(lineno, f"expected ring declaration, got {ringline!r}")
    try:
        ring = parse_ring(toks[1:])
    except ValueError as exc:
        raise MCXParseError(lineno, str(exc)) from None

    ranks: dict = {}
    raw_maps: dict = {}
    for lineno, line in lines[pos:]:
        toks = line.split(None, 1)
        kind = toks[0]
        if kind == "module":
            parts = line.split()
            if len(parts) != 4:
                raise MCXParseError(lineno, "module line needs '<a> <b> <rank>'")
            try:
                a, b, r = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise MCXParseError(lineno, "module indices must be integers") from None
            if r < 1:
                raise MCXParseError(lineno, f"rank must be >= 1, got {r}")
            if r > MAX_RANK:
                raise MCXParseError(lineno, f"rank must be <= {MAX_RANK}, got {r}")
            if (a, b) in ranks:
                raise MCXParseError(lineno, f"duplicate module ({a},{b})")
            ranks[(a, b)] = r
        elif kind == "map":
            head, colon, body = line.partition(":")
            if not colon:
                raise MCXParseError(lineno, "map line needs ':' before entries")
            parts = head.split()
            if len(parts) != 4:
                raise MCXParseError(lineno, "map line needs '<i> <a> <b> :'")
            try:
                i, a, b = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError:
                raise MCXParseError(lineno, "map indices must be integers") from None
            if i < 0:
                raise MCXParseError(lineno, "map index must be >= 0")
            if (i, a, b) in raw_maps:
                raise MCXParseError(lineno, f"duplicate map ({i},{a},{b})")
            raw_maps[(i, a, b)] = (lineno, body)
        else:
            raise MCXParseError(lineno, f"unrecognized directive {kind!r}")

    maps = {}
    for (i, a, b), (lineno, body) in raw_maps.items():
        if (a, b) not in ranks:
            raise MCXParseError(lineno, f"map on undeclared module ({a},{b})")
        tgt = ranks.get((a - i, b + i - 1))
        if tgt is None:
            raise MCXParseError(
                lineno, f"map d_{i} on ({a},{b}) targets absent module ({a - i},{b + i - 1})"
            )
        src = ranks[(a, b)]
        rows = body.split(";") if body else []  # the line is stripped
        if len(rows) != tgt:
            raise MCXParseError(
                lineno, f"d_{i} on ({a},{b}) needs {tgt} rows, got {len(rows)}"
            )
        entries = []
        for rowtext in rows:
            toks = rowtext.split()
            if len(toks) != src:
                raise MCXParseError(
                    lineno, f"d_{i} on ({a},{b}) needs {src} entries per row, got {len(toks)}"
                )
            try:
                entries.append(list(map(int, toks)))
            except ValueError:  # n/d, or a bad token: parse_scalar names it
                try:
                    entries.append([ring.parse_scalar(t) for t in toks])
                except ValueError as exc:
                    raise MCXParseError(lineno, str(exc)) from None
        # Over Q, int rows and Fraction rows alike go over one denominator.
        maps[(i, a, b)] = Mat.from_ints(ring, tgt, src, *ring.int_rows(entries))

    try:
        return Multicomplex(ring, ranks, maps)
    except ValueError as exc:
        raise MCXParseError(0, str(exc)) from None


def emit(c: Multicomplex) -> str:
    out = ["mcx 1", f"ring {c.ring}"]
    for (a, b) in sorted(c.ranks):
        out.append(f"module {a} {b} {c.ranks[(a, b)]}")
    for (i, a, b) in sorted(c.maps):
        m = c.maps[(i, a, b)]
        body = " ; ".join(
            " ".join(c.ring.format_scalar(v) for v in row) for row in m.data
        )
        out.append(f"map {i} {a} {b} : {body}")
    return "\n".join(out) + "\n"
