"""Self-test of the benchmark harness.  Run from the checkout root:

    python3 perfbench/selftest.py

It checks, on small instances of every ring, that
  * two traced runs give identical counts (calls, kernel entries, repeat
    ratios, largest bit length);
  * the stdout of every command is byte-identical with and without tracing;
  * per-layer self times add up to the traced span total;
  * a command that misses its deadline is cut off, charged the deadline
    and counted as failed;
  * the invariant digest ignores Delta matrices and a changed output fails
    the check;
  * without mcss sources the benchmark exits non-zero and prints no result.
Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3
FAILURES = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def small_instances():
    from mcss import builders
    from mcss.rings import GF, QQ

    rng = random.Random(SEED)
    made = [
        ("wall", builders.wall(builders.WallParams(3, 2, 2, 6))),
        ("q", builders.random_mcx(builders.RandomSpec(
            seed=SEED, width=6, height=6, maxrank=3, maxd=4, ring=QQ))),
        ("f97", builders.random_mcx(builders.RandomSpec(
            seed=SEED, width=6, height=6, maxrank=3, maxd=4, ring=GF(97)))),
        ("dense", workloads.dense_z(SEED, 2)),
    ]
    return [workloads.Instance(name, workloads.relabel(c, rng)) for name, c in made]


def write(instances, workdir):
    from mcss import mcxio

    paths = []
    for inst in instances:
        path = workdir / f"{inst.name}.mcx"
        path.write_text(mcxio.emit(inst.mcx), encoding="utf-8")
        paths.append(str(path))
    return paths


def counts(tables, counters):
    out = {f"{layer}.calls": row["calls"] for layer, row in tables[0].items()}
    out.update(counters[0])
    return out


def main():
    sys.path.insert(0, str(bench.ROOT / "src"))
    signal.signal(signal.SIGALRM, bench._on_alarm)
    workdir = HERE / "_work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        instances = small_instances()
        paths = write(instances, workdir)

        # Traced output is byte-identical to untraced output.
        tr = tracing.Tracer()
        same = True
        for path in paths:
            for cmd in bench.COMMANDS:
                plain = bench.run_command(cmd, path, 60)
                tr.install()
                try:
                    traced = bench.run_command(cmd, path, 60)
                finally:
                    tr.uninstall()
                same &= plain.status == traced.status == "ok"
                same &= plain.stdout == traced.stdout
        check(same, "traced stdout is byte-identical to untraced stdout")

        # Two traced runs give identical counts.
        runs = []
        for _ in range(2):
            run = bench.Run(SEED, instances, paths, {}, 60, time.perf_counter())
            tables, counters, roots, plain, traced = bench.measure_traced(run, 0)
            runs.append((tables, counters, roots, traced))
        first, second = (counts(t, c) for t, c, _, _ in runs)
        check(first == second, "count metrics repeat exactly across traced runs")
        check(first["linalg.snf.calls"] > 0 and first["pages.br.fresh"] > 0
              and first["filtered.zz.fresh"] > 0 and first["linalg.max_bits"] > 0,
              "counters see snf calls, fresh br/zz results and coefficient bits")
        missing = [layer for layer in bench.LAYER_SELF if first.get(f"{layer}.calls", 0) == 0]
        check(not missing, f"every traced layer is called ({missing or 'all'})")

        # Self times add up to the span total, which the traced pass contains.
        tables, _, roots, traced = runs[0]
        self_sum = sum(row["self_s"] for row in tables[0].values())
        check(abs(self_sum - roots[0]) <= 1e-6 * max(1.0, roots[0]),
              f"self times sum to the span total ({self_sum:.4f} s vs {roots[0]:.4f} s)")
        check(roots[0] <= traced[0][0], "span total lies within the traced pass time")

        # Deadline: cut off, charged, counted.
        dense = paths[-1]
        miss = bench.run_command("compare", dense, 0.001)
        check(miss.status == "deadline" and miss.seconds == 0.001,
              "a missed deadline is cut off and charged the deadline")
        run = bench.Run(SEED, instances[-1:], paths[-1:], {}, 0.001,
                        time.perf_counter())
        run.one_pass()
        check(run.failed == run.attempted == 3 and run.wrong == 0,
              "deadline misses count as failed commands")

        # Digests: Delta matrices are ignored only by the invariant digest.
        wall = bench.run_command("pages", paths[0], 60).stdout
        check("Delta_" in wall and "[" not in bench.invariant_text(wall),
              "the invariant text drops Delta matrices")
        ok = bench.Outcome(0.0, "ok", wall)
        pinned = {"full": bench.digest(wall),
                  "invariant": bench.digest(bench.invariant_text(wall))}
        check(bench.check_output(pinned, workloads.DEFAULT_SEED, ok),
              "pinned output passes the check")
        bad = bench.Outcome(0.0, "ok", wall.replace("Z", "Q", 1))
        check(not bench.check_output(pinned, SEED, bad), "changed output fails the check")

        # Without sources the benchmark refuses to run.
        bare = workdir / "bare"
        (bare / "perfbench").mkdir(parents=True)
        for f in HERE.glob("*.py"):
            shutil.copy(f, bare / "perfbench" / f.name)
        shutil.copy(HERE / "digests.json", bare / "perfbench" / "digests.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "wall_ladder",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "without mcss sources: non-zero exit and no result")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest:", "FAILED" if FAILURES else "passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
