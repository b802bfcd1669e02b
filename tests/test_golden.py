"""Golden corpus: CLI output must stay byte-identical across refactors.

Each case is an MCX file under tests/golden/, emitted by `mcss example`
or `mcss random` (or committed as it is, for a case whose command is
None), next to the frozen stdout of `pages`, `compare` and
`homology` on it, in text and `--json` form.  The `diff` files hold
`mcss diff` for every support cell at r = 2 and r = 3, each call on a
fresh engine, so the modules are requested out of page order.  To
re-freeze after an intended output change, run from the checkout root:

    PYTHONPATH=src python tests/test_golden.py
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from mcss.cli import main
from mcss.mcxio import parse

GOLDEN = Path(__file__).resolve().parent / "golden"

_RANDOM = ["--width", "5", "--height", "5", "--maxrank", "2", "--maxd", "3"]

CASES = {
    "staircase2": ["example", "staircase", "--len", "2"],
    "staircase3": ["example", "staircase", "--len", "3"],
    "staircase4": ["example", "staircase", "--len", "4"],
    "hurtubise1": ["example", "hurtubise", "--n", "1"],
    "hurtubise2": ["example", "hurtubise", "--n", "2", "--len", "5"],
    "hurtubise3": ["example", "hurtubise", "--n", "3"],
    "hurtubise4": ["example", "hurtubise", "--n", "4"],
    "wall_3_2_2": ["example", "wall", "--r", "3", "--s", "2", "--t", "2", "--amax", "8"],
    "random_f2_1": ["random", "--seed", "1", *_RANDOM, "--ring", "F", "2"],
    "random_f2_2": ["random", "--seed", "2", *_RANDOM, "--ring", "F", "2"],
    "random_f97_1": ["random", "--seed", "1", *_RANDOM, "--ring", "F", "97"],
    "random_q_1": ["random", "--seed", "1", *_RANDOM, "--ring", "Q"],
    "random_q_2": ["random", "--seed", "2", *_RANDOM, "--ring", "Q"],
    "random_z_1": ["random", "--seed", "1", *_RANDOM, "--ring", "Z"],
    "random_z_2": ["random", "--seed", "2", *_RANDOM, "--ring", "Z"],
    # The Q seed-5 window in a basis rescaled by rationals (`_rescaled` in
    # test_filtered.py, seed 5), emitted by `mcxio.emit`: fractional maps.
    "random_q_frac": None,
    # `example staircase --len 6` with `map 1 1 5 : 2`: Delta_6 = [-2], so
    # E_7(0,5) = Z/2 and H_5 = Z/2, a nonzero differential past r = 4.
    "staircase6_x2": None,
}

OUTPUTS = [
    (cmd, fmt) for cmd in ("pages", "compare", "homology", "diff") for fmt in ("txt", "json")
]


def _run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0, (argv, code)
    return buf.getvalue()


def _outputs(name):
    mcx = GOLDEN / f"{name}.mcx"
    path = str(mcx)
    cells = parse(mcx.read_text(encoding="utf-8")).support
    for cmd, fmt in OUTPUTS:
        flags = ["--json"] if fmt == "json" else []
        if cmd == "diff":
            out = "".join(
                _run(["diff", path, "-r", str(r), "-p", str(p), "-q", str(q)] + flags)
                for r in (2, 3) for p, q in cells)
        else:
            out = _run([cmd, path] + flags)
        yield GOLDEN / f"{name}.{cmd}.{fmt}", out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli_output(name):
    if CASES[name] is not None:
        mcx = GOLDEN / f"{name}.mcx"
        assert _run(CASES[name]) == mcx.read_text(encoding="utf-8")
    for path, out in _outputs(name):
        assert out == path.read_text(encoding="utf-8"), path.name


def _freeze():
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        if argv is not None:
            (GOLDEN / f"{name}.mcx").write_text(_run(argv), encoding="utf-8")
        for path, out in _outputs(name):
            path.write_text(out, encoding="utf-8")


if __name__ == "__main__":
    _freeze()
