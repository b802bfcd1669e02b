"""Command-line behavior: exit codes, determinism, JSON round-trips."""

import hashlib
import io
import json
import time
from pathlib import Path

import pytest

from mcss.cli import main
from mcss.linalg import InclusionError
from mcss.mcxio import emit, parse
from mcss.pages import WellDefinednessError
from mcss.builders import WallParams, hurtubise, staircase, wall
from mcss.rings import QQ, ZZ
from mcss.total import totalize
from test_multicomplex import broken_twice

H1 = emit(hurtubise(1))
H3 = emit(hurtubise(3))
DATA = Path(__file__).parent / "data"
DENSE_Z_S2 = DATA / "dense_z_s2.mcx"
# d_0 d_1 + d_1 d_0 = 2 != 0 on (1,1): relation n=1 fails.
BROKEN_RELATION = (DATA / "broken_relation.mcx").read_text()


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_ok(tmp_path, capsys):
    f = tmp_path / "h1.mcx"
    f.write_text(H1)
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 0 and out.strip() == "OK"


def test_validate_relation_failure(tmp_path, capsys):
    f = tmp_path / "bad.mcx"
    f.write_text(BROKEN_RELATION)
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 1
    assert "n=1" in out and "(1,1)" in out


BROKEN_INPUTS = {
    "broken_relation": lambda: BROKEN_RELATION,
    "broken_relation_frac": lambda: (DATA / "broken_relation_frac.mcx").read_text(),
    "two violations over Z": lambda: emit(broken_twice(ZZ)),
    "two violations over Q": lambda: emit(broken_twice(QQ)),
}


@pytest.mark.parametrize("argv", [
    ["pages"], ["pages", "--json"], ["diff", "-r", "1", "-p", "1", "-q", "1"],
    ["diff", "--json", "-r", "1", "-p", "1", "-q", "1"],
    ["compare"], ["compare", "--json"], ["homology"], ["homology", "--json"],
], ids=" ".join)
def test_engine_commands_refuse_invalid_input(tmp_path, capsys, argv):
    # The command does not validate: the engine refuses the input, and
    # the command writes every violation it carries on stderr, exactly
    # the lines validate writes on stdout, and nothing on stdout.
    for name, text in BROKEN_INPUTS.items():
        f = tmp_path / "broken.mcx"
        f.write_text(text())
        code, want, _ = run(capsys, "validate", str(f))
        assert code == 1 and want.startswith("violation: "), name
        code, out, err = run(capsys, *argv[:1], str(f), *argv[1:])
        assert (code, out, err) == (1, "", want), name


def test_parse_error_exit_2(tmp_path, capsys):
    f = tmp_path / "syntax.mcx"
    f.write_text("mcx 1\nring Q\nmodule 0 0 1\nmodule 0 0 1\n")
    code, _, err = run(capsys, "validate", str(f))
    assert code == 2 and "line 4" in err


def test_usage_error_exit_3(capsys):
    code, _, err = run(capsys, "example", "staircase")
    assert code == 3 and "len" in err
    code, _, err = run(capsys, "example", "wall", "--r", "5", "--s", "2", "--t", "2")
    assert code == 3
    code, _, err = run(capsys, "example", "nonsense")
    assert code == 3 and "invalid choice" in err


def test_hurtubise_2_without_len_names_the_flag(capsys):
    # One usage line, no traceback; the builder's ValueError stays for
    # library callers.
    code, out, err = run(capsys, "example", "hurtubise", "--n", "2")
    assert (code, out, err) == (3, "", "usage error: hurtubise --n 2 needs --len\n")


def test_stdin_input(capsys, monkeypatch):
    code, out, _ = run(capsys, "validate", "-", stdin=H1, monkeypatch=monkeypatch)
    assert code == 0 and out.strip() == "OK"


def test_pages_text_deterministic(tmp_path, capsys):
    f = tmp_path / "h1.mcx"
    f.write_text(H1)
    code1, out1, _ = run(capsys, "pages", str(f))
    code2, out2, _ = run(capsys, "pages", str(f))
    assert code1 == code2 == 0
    assert out1 == out2
    assert "E_2:" in out1
    assert "(0,1): Z^1" in out1 and "(2,0): Z^1" in out1
    assert "Delta_2:" in out1 and "[-1]" in out1


def test_pages_json_roundtrip(tmp_path, capsys):
    f = tmp_path / "h1.mcx"
    f.write_text(H1)
    code, out, _ = run(capsys, "pages", str(f), "--json", "--max-r", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["ring"] == "Z"
    assert doc["pages"]["2"]["0"]["1"] == {"invariants": [0]}
    assert doc["pages"]["3"] == {}
    d2 = doc["differentials"]["2"]
    assert d2 == [{"p": 2, "q": 0, "target_p": 0, "target_q": 1, "matrix": [["-1"]]}]


def test_pages_empty_delta_table_for_hurtubise3(tmp_path, capsys):
    f = tmp_path / "h3.mcx"
    f.write_text(H3)
    code, out, _ = run(capsys, "pages", str(f), "--json")
    doc = json.loads(out)
    assert all(not recs for r, recs in doc["differentials"].items() if int(r) >= 2)


def test_diff_single_cell(tmp_path, capsys):
    f = tmp_path / "h1.mcx"
    f.write_text(H1)
    code, out, _ = run(capsys, "diff", str(f), "-r", "2", "-p", "2", "-q", "0")
    assert code == 0
    assert "Delta_2 at (2,0) -> (0,1)" in out
    assert "matrix: [-1]" in out


def test_compare_ok_and_json(tmp_path, capsys):
    f = tmp_path / "h3.mcx"
    f.write_text(H3)
    code, out, _ = run(capsys, "compare", str(f))
    assert code == 0 and "OK" in out
    code, out, _ = run(capsys, "compare", str(f), "--json", "--max-r", "3")
    doc = json.loads(out)
    assert code == 0 and doc["compare"]["failures"] == []


def test_homology_output(tmp_path, capsys):
    f = tmp_path / "wall.mcx"
    f.write_text(emit(wall(WallParams(3, 2, 2, 4))))
    code, out, _ = run(capsys, "homology", str(f))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ring Z"
    assert "H_0: Z^1" in lines
    assert "H_1: Z/2" in lines
    code, out, _ = run(capsys, "homology", str(f), "--json")
    doc = json.loads(out)
    assert doc["homology"]["0"] == {"invariants": [0]}
    assert doc["homology"]["1"] == {"invariants": [2]}


def test_dense_z_seed_2_homology_and_compare(capsys):
    # A direct sum of five random Z windows in a unimodular basis (the
    # benchmark's dense_z instance for base seed 2).  Its Hermite forms
    # ran for minutes while the pivot was the first nonzero entry.
    start = time.perf_counter()
    code, out, err = run(capsys, "homology", str(DENSE_Z_S2))
    assert time.perf_counter() - start < 10
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "ring Z",
        "H_2: Z/2",
        "H_3: Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/6 ⊕ Z/6 ⊕ Z/12 ⊕ Z/12 ⊕ Z^3",
        "H_4: Z/3",
        "H_5: Z^1",
        "H_6: Z^1",
    ]
    start = time.perf_counter()
    code, out, err = run(capsys, "compare", str(DENSE_Z_S2))
    assert time.perf_counter() - start < 10
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "OK"


def test_homology_reduces_each_boundary_map_once(capsys, monkeypatch):
    # `mcss homology` takes one canonical span of the columns of each
    # boundary map it reads, d_n and d_{n+1} for every degree n, and builds
    # no kernel, no image of a matrix and no subquotient.
    import mcss.filtered
    import mcss.linalg
    import mcss.pages
    from mcss.linalg import SubmodulePresentation
    from oracles import dense_differentials, to_cols

    calls = {"span": [], "image": 0, "kernel": 0, "subquotient": 0}
    span = SubmodulePresentation.span

    def counted_span(cls, ring, ambient_rank, columns):
        calls["span"].append((ambient_rank, [list(col) for col in columns]))
        return span(ring, ambient_rank, columns)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(SubmodulePresentation, "span", classmethod(counted_span))
    for name in ("image", "kernel", "subquotient"):
        for module in (mcss.filtered, mcss.linalg, mcss.pages):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    code, out, err = run(capsys, "homology", str(DENSE_Z_S2))
    assert code == 0 and err == ""
    assert out.splitlines()[1:] == [
        "H_2: Z/2",
        "H_3: Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/2 ⊕ Z/6 ⊕ Z/6 ⊕ Z/12 ⊕ Z/12 ⊕ Z^3",
        "H_4: Z/3",
        "H_5: Z^1",
        "H_6: Z^1",
    ]
    assert calls["image"] == calls["kernel"] == calls["subquotient"] == 0
    # The spanned columns are d_m's, assembled densely from the maps (over Z
    # Tot's denominator is 1); a d_m into a zero Tot_{m-1} has empty columns.
    c = parse(DENSE_Z_S2.read_text())
    t, dense = totalize(c), dense_differentials(c)
    maps = sorted({m for n in t.degrees() for m in (n, n + 1)})
    assert calls["span"] == [
        (t.dim(m - 1), to_cols(dense[m]) if m in dense else [[]] * t.dim(m))
        for m in maps]


def test_compare_serves_dead_cells_from_their_zero_page(tmp_path, capsys, monkeypatch):
    # Most cells of a Wall window are zero from E_1 or E_2 on, long before
    # their settle page: both routes serve their later pages from the zero
    # page, and B_r takes no values from a dead source cell.  Computing
    # every page up to the settle page took 5,291 spans and 580 kernels.
    # B_1 of a cell with no d_0 into it is the zero module, built without
    # a span: that took 153 more.  Each chain step with nonzero values
    # builds K_{s+1} in one elimination that carries its image along: as a
    # kernel and two spans, its 180 such steps took 180 more kernels and
    # 360 more spans (1,842 and 316).  B_s takes no span where Delta_{s-1}
    # into the cell is zero, as its source's Z_s equals Z_{s-1}: spanning
    # those values too took 64 more (1,482).  A kernel is one elimination
    # of [d_0^T | I] that carries its own transform: as an elimination and
    # a span of its free vectors or transform columns, each of the 136
    # kernels took one span more (1,418).  B_r of a filtered entry is read
    # off its reduction's pivot rows, which are in echelon form already:
    # spanning the reduction's suffix for each took 469 more (1,282).
    import mcss.linalg
    import mcss.pages
    from mcss.linalg import SubmodulePresentation
    from mcss.pages import SpectralPages

    calls = {"span": 0, "kernel": 0, "extend": 0}
    span, kernel = SubmodulePresentation.span.__func__, mcss.linalg.kernel
    extend = SpectralPages._extend

    def counting_span(cls, *args, **kwargs):
        calls["span"] += 1
        return span(cls, *args, **kwargs)

    def counting_kernel(m):
        calls["kernel"] += 1
        return kernel(m)

    def counting_extend(self, *args):
        calls["extend"] += 1
        return extend(self, *args)

    monkeypatch.setattr(SubmodulePresentation, "span", classmethod(counting_span))
    for module in (mcss.linalg, mcss.pages):
        monkeypatch.setattr(module, "kernel", counting_kernel)
    monkeypatch.setattr(SpectralPages, "_extend", counting_extend)
    f = tmp_path / "wall16.mcx"
    f.write_text(emit(wall(WallParams(3, 2, 2, 16))))
    code, out, err = run(capsys, "compare", str(f))
    assert (code, err) == (0, "")
    assert out == "ring Z\nchecked 5491 cells for r <= 18\nOK\n"
    assert calls == {"span": 813, "kernel": 136, "extend": 236}


@pytest.mark.parametrize("ring", ["F 2", "F 97"])
def test_field_modules_take_residues(tmp_path, capsys, monkeypatch, ring):
    # Over GF(p), span, the echelon loop (in linalg and in the filtered
    # reductions) and the fused elimination of a chain step and of `kernel`
    # (K_1 = ker d_0) read residues in [0, p): none of them reduces its
    # input.
    import mcss.filtered
    import mcss.linalg
    import mcss.pages
    from mcss.linalg import SubmodulePresentation

    p = int(ring.split()[1])
    seen = {"span": 0, "echelon": 0, "reduction": 0, "kernel_image": 0, "kernel": 0}

    def check(name, rows):
        assert all(0 <= x < p for row in rows for x in row), name
        seen[name] += 1
        return rows

    span, echelon, kernel_image = (SubmodulePresentation.span.__func__,
                                   mcss.linalg._echelon, mcss.linalg._kernel_image)
    monkeypatch.setattr(SubmodulePresentation, "span", classmethod(
        lambda cls, ring, n, columns: span(cls, ring, n, check("span", columns))))
    for module, name in ((mcss.linalg, "echelon"), (mcss.filtered, "reduction")):
        monkeypatch.setattr(module, "_echelon", lambda ring, vecs, *args, name=name, **kwargs:
                            echelon(ring, check(name, vecs), *args, **kwargs))
    for module, name in ((mcss.pages, "kernel_image"), (mcss.linalg, "kernel")):
        monkeypatch.setattr(module, "_kernel_image", lambda ring, nsys, rows, name=name:
                            kernel_image(ring, nsys, check(name, rows)))
    f = tmp_path / "random.mcx"
    code, text, _ = run(capsys, "random", "--seed", "5", "--width", "8", "--height", "8",
                        "--maxrank", "3", "--maxd", "4", "--ring", *ring.split())
    assert code == 0
    f.write_text(text)
    for command in ("pages", "compare", "homology"):
        code, out, err = run(capsys, command, str(f))
        assert (code, err) == (0, ""), command
    assert all(seen.values()), seen


@pytest.mark.parametrize("command, digest, lines", [
    (["pages"], "e2efe55bcaa93d7830a7d90eb2706421ed472e357f5c99c30cb7dc1ae6f99925", 2061),
    (["compare"], "c6963bdf0358111282788f8aef1ae2eeb706d31f47b8554898ff9a15cc79fc80", 3),
    (["pages", "--json"], "685280cb4399733c841b0d1ff61715d9c9b7591847fd9975c4fbbcf069da4185",
     13781),
], ids=["pages", "compare", "pages-json"])
def test_served_pages_at_scale_keep_their_output(tmp_path, capsys, command, digest, lines):
    # Wall (3,2,2) at amax 24: 625 cells, most of whose pages are served
    # past the cell's last page by both routes.  The output is pinned by
    # hash, as computed when every page built its own entry and every
    # differential.
    f = tmp_path / "wall24.mcx"
    f.write_text(emit(wall(WallParams(3, 2, 2, 24))))
    code, out, err = run(capsys, *command, str(f))
    assert (code, err) == (0, "")
    assert out.count("\n") == lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pages_ask_only_for_live_cells(tmp_path, capsys, monkeypatch):
    # Wall (3,2,2) at amax 16, paged to the bound: each page after the
    # first keeps page r-1's entry for every cell past its last page and
    # asks `entry` only for the others.  Asking every cell on every page
    # took 6,507 entry calls; the 508 differentials are the same.
    from mcss.pages import SpectralPages

    calls = {"entry": 0, "delta": 0}
    for name in calls:
        def counted(self, *args, name=name, original=getattr(SpectralPages, name)):
            calls[name] += 1
            return original(self, *args)
        monkeypatch.setattr(SpectralPages, name, counted)
    f = tmp_path / "wall16.mcx"
    f.write_text(emit(wall(WallParams(3, 2, 2, 16))))
    code, out, err = run(capsys, "pages", str(f))
    assert (code, err) == (0, "")
    assert out.count("\n") == 961
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "23033e980af96e9fa210914382cb2e97db6f0b05feac5c63caaf9c06f0a4cae5")
    assert calls == {"entry": 1875, "delta": 508}


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away, at the first write or at flush."""

    def __init__(self, at):
        super().__init__()
        self.at = at

    def write(self, text):
        if self.at == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.at == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("at", ["write", "flush"])
def test_closed_stdout_exits_141_silently(tmp_path, capsys, monkeypatch, at):
    f = tmp_path / "wall.mcx"
    f.write_text(emit(wall(WallParams(3, 2, 2, 4))))
    monkeypatch.setattr("sys.stdout", _ClosedPipe(at))
    code = main(["homology", str(f)])
    assert code == 141
    assert capsys.readouterr().err == ""


def test_example_emits_valid_file(tmp_path, capsys):
    out_path = tmp_path / "wall.mcx"
    code, _, _ = run(capsys, "example", "wall", "--r", "3", "--s", "2", "--t", "2",
                     "-o", str(out_path))
    assert code == 0
    c = parse(out_path.read_text())
    assert c.validate() == []
    assert c == wall(WallParams(3, 2, 2, 8))


def test_example_staircase_ring_flag(capsys):
    code, out, _ = run(capsys, "example", "staircase", "--len", "3", "--ring", "F", "5")
    assert code == 0
    assert out.startswith("mcx 1\nring F 5\n")
    assert parse(out) == staircase(3, __import__("mcss.rings", fromlist=["GF"]).GF(5))


def test_random_deterministic(capsys):
    code1, out1, _ = run(capsys, "random", "--seed", "42")
    code2, out2, _ = run(capsys, "random", "--seed", "42")
    assert code1 == code2 == 0 and out1 == out2
    assert parse(out1).validate() == []


def test_ring_override(tmp_path, capsys):
    f = tmp_path / "h1.mcx"
    f.write_text(H1)
    code, out, _ = run(capsys, "pages", str(f), "--ring", "Q")
    assert code == 0 and out.splitlines()[0] == "ring Q"
    # refusal: rational entries cannot rebase to F 2
    g = tmp_path / "frac.mcx"
    g.write_text("mcx 1\nring Q\nmodule 0 0 1\nmodule 0 1 1\nmap 0 0 1 : 1/2\n")
    code, _, err = run(capsys, "pages", str(g), "--ring", "F", "2")
    assert code == 3 and "rebase" in err
    code, _, err = run(capsys, "pages", str(g), "--ring", "Z")
    assert code == 3


RING_NAMES = {
    ("Q",): "ring Q",
    ("Z",): "ring Z",
    ("F", "97"): "ring F 97",
    ("F 97",): "ring F 97",
    ("F5",): "unknown ring 'F5' (expected Q, Z or F <p>)",
    ("F,5",): "unknown ring 'F,5' (expected Q, Z or F <p>)",
    ("F", "4"): "bad ring 'F 4': 4 is not prime",
    ("F", "x"): "unknown ring 'F x' (expected Q, Z or F <p>)",
    ("R",): "unknown ring 'R' (expected Q, Z or F <p>)",
}


@pytest.mark.parametrize("tokens", sorted(RING_NAMES), ids="|".join)
def test_ring_option_and_ring_line_share_one_grammar(tmp_path, capsys, tokens):
    # `--ring` and an MCX `ring` line name a ring by one grammar,
    # Q, Z or F <p>: both accept the same names, and both refuse the same
    # ones with one stderr line of the same text, exit 3 and exit 2.
    f = tmp_path / "h1.mcx"
    f.write_text(H1)
    named = tmp_path / "named.mcx"
    named.write_text(H1.replace("ring Z\n", f"ring {' '.join(tokens)}\n", 1))
    by_option = run(capsys, "pages", str(f), "--ring", *tokens)
    by_line = run(capsys, "pages", str(named))
    want = RING_NAMES[tokens]
    if want.startswith("ring "):
        assert by_option[0] == 0 and by_option[1].splitlines()[0] == want
        assert by_line == by_option
    else:
        assert by_option == (3, "", f"usage error: {want}\n")
        assert by_line == (2, "", f"parse error: line 2: {want}\n")


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/nowhere.mcx")
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["compare", "FILE", "--max-r", "-1"],
    ["pages", "FILE", "--max-r", "-1"],
    ["diff", "FILE", "-r", "-1", "-p", "0", "-q", "0"],
    ["example", "staircase", "--len", "3", "--ring", "F", "4"],
    ["random", "--seed", "1", "--ring", "F", "x"],
    ["pages", "DIR"],
    ["compare", "DIR"],
], ids=" ".join)
def test_bad_arguments_exit_3_with_one_line(tmp_path, capsys, argv):
    f = tmp_path / "h1.mcx"
    f.write_text(H1)
    subst = {"FILE": str(f), "DIR": str(tmp_path)}
    code, out, err = run(capsys, *[subst.get(a, a) for a in argv])
    assert code == 3
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_rank_above_ceiling_exits_2_at_parse(tmp_path, capsys):
    f = tmp_path / "huge.mcx"
    f.write_text("mcx 1\nring Z\nmodule 0 0 100000000\n")
    code, out, err = run(capsys, "validate", str(f))
    assert code == 2 and out == ""
    assert err.startswith("parse error: line 3") and err.count("\n") == 1


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc
    return raiser


@pytest.mark.parametrize("command, target, error", [
    ("pages", "mcss.pages.SpectralPages.delta", WellDefinednessError),
    ("compare", "mcss.pages.subquotient", InclusionError),
], ids=["pages-WellDefinednessError", "compare-InclusionError"])
def test_engine_errors_exit_1_with_one_line(tmp_path, capsys, monkeypatch,
                                            command, target, error):
    monkeypatch.setattr(target, _raise(error("injected failure")))
    f = tmp_path / "h1.mcx"
    f.write_text(H1)
    code, out, err = run(capsys, command, str(f))
    assert code == 1
    assert out == ""
    assert err == "error: injected failure\n"


LATIN1_COMMENT = b"mcx 1\nring Z\nmodule 0 0 1\n# caf\xe9\n"


def _stdin_bytes(monkeypatch, data):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="latin-1"))


def test_non_utf8_file_is_parse_error(tmp_path, capsys):
    f = tmp_path / "latin1.mcx"
    f.write_bytes(LATIN1_COMMENT)
    code, out, err = run(capsys, "homology", str(f))
    assert code == 2 and out == ""
    assert err == "parse error: line 4: invalid UTF-8 byte 0xe9\n"


def test_non_utf8_stdin_is_parse_error(capsys, monkeypatch):
    # The stream's own encoding would accept the byte: input is decoded as UTF-8.
    _stdin_bytes(monkeypatch, LATIN1_COMMENT)
    code, out, err = run(capsys, "homology", "-")
    assert code == 2 and out == ""
    assert err == "parse error: line 4: invalid UTF-8 byte 0xe9\n"


def test_utf8_comment_accepted_from_file_and_stdin(tmp_path, capsys, monkeypatch):
    text = LATIN1_COMMENT.replace(b"\xe9", "é".encode())
    f = tmp_path / "utf8.mcx"
    f.write_bytes(text)
    _, from_file, _ = run(capsys, "homology", str(f))
    _stdin_bytes(monkeypatch, text)
    code, from_stdin, err = run(capsys, "homology", "-")
    assert code == 0 and err == ""
    assert from_file == from_stdin and "H_0: Z^1" in from_stdin


def test_wide_sparse_support_is_not_cubic(tmp_path, capsys):
    # Two rank-1 cells 1000 columns apart and no maps: every cycle system
    # spans the whole width, but only blocks within maxd of each other
    # can hold a map.
    f = tmp_path / "wide.mcx"
    f.write_text("mcx 1\nring Z\nmodule 0 0 1\nmodule 1000 0 1\n")
    start = time.perf_counter()
    code, out, _ = run(capsys, "pages", str(f))
    assert code == 0 and out.count("\n") == 3010
    assert time.perf_counter() - start < 10
    code, out, _ = run(capsys, "compare", str(f))
    assert code == 0 and out.splitlines()[-1] == "OK"


def test_wide_sparse_support_chains_are_linear(tmp_path, capsys, monkeypatch):
    # 40 rank-1 cells at column 1000 (rows 0-39) and 40 at column 0 (rows
    # 999-1038), over Z with no maps: every cell's chain or B_r runs for
    # 1001 pages, but each chain step reads only the blocks of its row
    # that carry a map, and a page whose two neighbouring cells are absent
    # is served from the page before.  With a full-width step row this
    # took about 10.7 s and 20.7M Multicomplex.rank calls.
    from mcss.multicomplex import Multicomplex

    f = tmp_path / "wide80.mcx"
    f.write_text("mcx 1\nring Z\n" + "".join(
        [f"module 1000 {q} 1\n" for q in range(40)]
        + [f"module 0 {q} 1\n" for q in range(999, 1039)]))
    calls = []
    original = Multicomplex.rank

    def counting(self, a, b):
        calls.append(None)
        return original(self, a, b)

    monkeypatch.setattr(Multicomplex, "rank", counting)
    start = time.perf_counter()
    code, out, _ = run(capsys, "pages", str(f))
    elapsed = time.perf_counter() - start
    assert code == 0 and out.count("\n") == 81244
    assert len(calls) <= 10 * 80 * 1003  # at most 10 per (cell, page)
    assert elapsed < 5

    # The filtered route serves those pages from the page before too: it
    # looks up no filtration cut for them.  Computing every page below the
    # settle page took about 322,000 filtration_start calls.
    from mcss.total import TotalComplex

    cuts = []
    original_cut = TotalComplex.filtration_start

    def counting_cut(self, n, p):
        cuts.append(None)
        return original_cut(self, n, p)

    monkeypatch.setattr(TotalComplex, "filtration_start", counting_cut)
    start = time.perf_counter()
    code, out, _ = run(capsys, "compare", str(f))
    elapsed = time.perf_counter() - start
    assert code == 0 and out.splitlines()[-1] == "OK"
    assert len(cuts) <= 5000
    assert elapsed < 5


def test_far_diff_on_wide_support_exits_0(tmp_path, capsys):
    # Page 1001 of a 1000-column support: B_r is filled forward, without a
    # recursion as deep as the page index.
    f = tmp_path / "wide.mcx"
    f.write_text("mcx 1\nring Z\nmodule 0 0 1\nmodule 1000 0 1\n")
    code, out, err = run(capsys, "diff", str(f), "-r", "1001", "-p", "0", "-q", "0")
    assert code == 0 and err == ""
    assert out.splitlines()[1] == "Delta_1001 at (0,0) -> (-1001,1000)"


def test_far_diff_work_is_bounded_by_the_support(tmp_path, capsys):
    f = tmp_path / "h4.mcx"
    f.write_text(emit(hurtubise(4)))
    start = time.perf_counter()
    code, out, err = run(capsys, "diff", str(f), "-r", "1000000", "-p", "2", "-q", "0")
    assert code == 0 and err == ""
    assert time.perf_counter() - start < 5
