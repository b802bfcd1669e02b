"""The mcss benchmark: CLI commands on generated MCX files, timed in-process.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload wall_ladder --seed 0 --seconds 30 --trace 0
    python3 perfbench/selftest.py       # the harness's own checks
    python3 perfbench/run.py --pin      # re-pin digests.json (default seed)

One client runs a closed loop: it calls `mcss.cli.main([command, FILE])`
in this process for `pages`, `compare` and `homology` on every instance
of the workload (see `workloads.py`), waits for each to return, and
repeats the whole pass while another pass fits into `--seconds`.  Each
command has a deadline, enforced by an interval timer (SIGALRM); a
command that misses it is charged the deadline and counted as failed.
Every command's stdout is checked against the pinned digests in
`digests.json`; a mismatch or a non-zero exit is also counted as failed
and makes the run incorrect.

Times are rescaled to a reference host speed (see `calibration.py`), and
each (instance, command) contributes the median over the passes:
`pages_s`, `compare_s` and `homology_s` sum these over the instances,
`slowest_s` is the largest per-instance sum of the three.  `setup_s` is
the median of several imports of mcss plus instance generation and MCX
emission.  `peak_rss_mb` is the process's high-water resident set size.

With `--trace 0` the last line of stdout is a JSON object with these
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of
`tracer.py`, from passes that alternate between traced and untraced, so
that the tracing overhead is measured too.  The line before it holds the
run context (versions, seed, deadline, instance sizes, failures, the
measured times before rescaling), which is also written to
`perfbench/_out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

COMMANDS = ("pages", "compare", "homology")
DEADLINE_S = 10.0
RUN_BUDGET_S = 150.0
SETUP_REPS = 5
DIGESTS = HERE / "digests.json"

END_TO_END = {
    "pages_s": "s", "compare_s": "s", "homology_s": "s", "slowest_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}
LAYER_CALLS = [
    "linalg.kernel", "linalg.solve", "linalg.span", "linalg.subquotient", "linalg.snf",
    "linalg.matvec", "pages.zr", "pages.br", "pages.entry", "pages.witness", "pages.delta",
    "filtered.zz", "filtered.bb", "filtered.entry", "filtered.delta",
    "filtered.compare_engines", "filtered.homology", "total.totalize",
]
# The CLI never calls FilteredPages.delta, and snf runs only over Z: their
# self times would read 0 s on every run of some workload, so they stay in
# the run context and only their call counts are metrics.
IDLE_SOMEWHERE = ("linalg.snf", "filtered.delta")
LAYER_SELF = [name for name in LAYER_CALLS if name not in IDLE_SOMEWHERE] + [
    "mcxio.parse", "multicomplex.validate", "cli.main",
]

_DELTA_LINE = re.compile(r"^(  \(-?\d+,-?\d+\) -> \(-?\d+,-?\d+\)): .*$", re.M)


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM inside a command that ran past its deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def invariant_text(text: str) -> str:
    """Stdout without the Delta matrices, which depend on the chosen basis."""
    return _DELTA_LINE.sub(r"\1", text)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# set-up


def _purge_mcss():
    for name in [n for n in sys.modules if n == "mcss" or n.startswith("mcss.")]:
        del sys.modules[name]


def setup(workload, seed, workdir, reps=SETUP_REPS):
    """Import mcss, build the instances and write their MCX files, `reps` times.

    Returns (median reference seconds, instances, paths of the last repetition).
    """
    times = []
    ref_before = calibration.reference_seconds()
    for _ in range(reps):
        _purge_mcss()
        gc.collect()
        t0 = time.perf_counter()
        import mcss.cli  # noqa: F401
        from mcss import mcxio
        instances = workloads.build(workload, seed)
        paths = []
        for inst in instances:
            path = workdir / f"{inst.name}.mcx"
            path.write_text(mcxio.emit(inst.mcx), encoding="utf-8")
            paths.append(str(path))
        seconds = time.perf_counter() - t0
        ref_after = calibration.reference_seconds()
        times.append(to_reference(seconds, ref_before, ref_after))
        ref_before = ref_after
    return statistics.median(times), instances, paths


def to_reference(seconds, ref_before, ref_after):
    """Measured seconds rescaled to a host that runs the reference in REFERENCE_S."""
    return seconds * calibration.REFERENCE_S * 2 / (ref_before + ref_after)


# ---------------------------------------------------------------------------
# one command


class Outcome:
    __slots__ = ("seconds", "status", "stdout")

    def __init__(self, seconds, status, stdout):
        self.seconds = seconds
        self.status = status   # "ok", "deadline", "exit <n>", "error <type>", "skipped"
        self.stdout = stdout


def run_command(command, path, deadline):
    """Run one CLI command in-process and time it, cut off at `deadline` seconds."""
    import mcss.cli

    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    status = "ok"
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = mcss.cli.main([command, path])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - t0
        if code != 0:
            status = f"exit {code}"
    except DeadlineExceeded:
        return Outcome(deadline, "deadline", None)
    except Exception as exc:  # a traceback from the CLI: count it, keep measuring
        seconds = time.perf_counter() - t0
        status = f"error {type(exc).__name__}"
    return Outcome(seconds, status, out.getvalue())


def check_output(pinned, seed, outcome):
    """Whether stdout matches the pinned digests (full text only for the default seed)."""
    if pinned is None or outcome.stdout is None:
        return False
    if seed == workloads.DEFAULT_SEED and digest(outcome.stdout) != pinned["full"]:
        return False
    return digest(invariant_text(outcome.stdout)) == pinned["invariant"]


# ---------------------------------------------------------------------------
# measurement


class Run:
    """Closed-loop passes over the instances, with outcome bookkeeping."""

    def __init__(self, seed, instances, paths, pinned, deadline, t_begin):
        self.seed = seed
        self.instances = instances
        self.paths = paths
        self.pinned = pinned
        self.deadline = deadline
        self.t_begin = t_begin
        self.times = {(inst.name, cmd): [] for inst in instances for cmd in COMMANDS}
        self.raw = {key: [] for key in self.times}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0   # mismatched output, non-zero exit or exception
        self.failures = []

    def one_pass(self):
        """Run every command on every instance once.

        A reference run before and after each command rescales its time.
        Returns the pass's measured and rescaled seconds.
        """
        total = scaled_total = 0.0
        ref_before = calibration.reference_seconds()
        for inst, path in zip(self.instances, self.paths):
            for cmd in COMMANDS:
                if time.perf_counter() - self.t_begin > RUN_BUDGET_S:
                    outcome = Outcome(self.deadline, "skipped", None)
                else:
                    outcome = run_command(cmd, path, self.deadline)
                self.attempted += 1
                if outcome.status == "ok" and not check_output(
                        self.pinned.get(inst.name, {}).get(cmd), self.seed, outcome):
                    outcome.status = "mismatch"
                if outcome.status != "ok":
                    self.failed += 1
                    self.failures.append(f"{inst.name} {cmd}: {outcome.status}")
                    if outcome.status not in ("deadline", "skipped"):
                        self.wrong += 1
                ref_after = calibration.reference_seconds()
                if outcome.status in ("deadline", "skipped"):
                    scaled = outcome.seconds
                else:
                    scaled = to_reference(outcome.seconds, ref_before, ref_after)
                ref_before = ref_after
                self.times[(inst.name, cmd)].append(scaled)
                self.raw[(inst.name, cmd)].append(outcome.seconds)
                total += outcome.seconds
                scaled_total += scaled
        return total, scaled_total

    def medians(self, raw=False):
        """Median time of each (instance, command) over the passes."""
        times = self.raw if raw else self.times
        return {key: statistics.median(v) for key, v in times.items() if v}

    def end_to_end(self):
        med = self.medians()
        out = {f"{cmd}_s": sum(med[(inst.name, cmd)] for inst in self.instances)
               for cmd in COMMANDS}
        out["slowest_s"] = max(sum(med[(inst.name, cmd)] for cmd in COMMANDS)
                               for inst in self.instances)
        return out


def _keep_going(t_start, seconds, loop_times):
    """Whether another loop of typical length still fits into the measuring time."""
    elapsed = time.perf_counter() - t_start
    return elapsed + statistics.median(loop_times) <= seconds


def measure(run, seconds):
    """Untraced passes until `seconds` are used (at least one); measured pass seconds."""
    t_start = time.perf_counter()
    pass_times = [run.one_pass()[0]]
    while _keep_going(t_start, seconds, pass_times):
        pass_times.append(run.one_pass()[0])
    return pass_times


def measure_traced(run, seconds):
    """Alternate untraced and traced passes, at least one of each.

    Returns per-pass layer tables, counters and span totals of the traced
    passes, and the (measured, rescaled) seconds of both kinds of pass.
    """
    tr = tracing.Tracer()
    plain, traced, tables, counters, roots = [], [], [], [], []
    t_start = time.perf_counter()
    while True:
        plain.append(run.one_pass())
        tr.install()
        try:
            traced.append(run.one_pass())
        finally:
            tr.uninstall()
        tables.append(tr.layer_table())
        counters.append(dict(tr.counters))
        roots.append(tr.root_seconds())
        tr.clear()
        loops = [a[0] + b[0] for a, b in zip(plain, traced)]
        if not _keep_going(t_start, seconds, loops):
            break
    return tables, counters, roots, plain, traced


def layer_metrics(tables, counters, plain, traced):
    """Per-layer metrics; self times are rescaled like the pass they belong to."""
    first, ctr = tables[0], counters[0]
    out = {}
    for layer in LAYER_CALLS:
        out[f"{layer}.calls"] = (first.get(layer, {"calls": 0})["calls"], "count")
    for layer in LAYER_SELF:
        vals = [t.get(layer, {"self_s": 0.0})["self_s"] * scaled / measured
                for t, (measured, scaled) in zip(tables, traced)]
        out[f"{layer}.self_s"] = (statistics.median(vals), "s")
    out["linalg.kernel.entries"] = (ctr["linalg.kernel.entries"], "count")
    out["linalg.max_bits"] = (ctr["linalg.max_bits"], "bits")
    for prefix in ("pages.br", "filtered.zz"):
        fresh = ctr[prefix + ".fresh"]
        out[f"{prefix}.repeat_ratio"] = (
            ctr[prefix + ".repeat"] / fresh if fresh else 0.0, "ratio")
    out["trace.overhead_ratio"] = (
        statistics.median(s for _, s in traced) / statistics.median(s for _, s in plain),
        "ratio")
    return out


# ---------------------------------------------------------------------------
# context


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(args, instances, setup_s):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "deadline_s": DEADLINE_S,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "setup_s": setup_s,
        "instances": {inst.name: workloads.sizes(inst.mcx) for inst in instances},
    }


def load_pins(workload):
    try:
        return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {})
    except FileNotFoundError:
        return {}


def pin(workdir):
    """Recompute the pinned digests of every workload for the default seed."""
    pins = {}
    for workload in workloads.WORKLOADS:
        _, instances, paths = setup(workload, workloads.DEFAULT_SEED, workdir, reps=1)
        pins[workload] = {}
        for inst, path in zip(instances, paths):
            entry = pins[workload][inst.name] = {}
            for cmd in COMMANDS:
                outcome = run_command(cmd, path, DEADLINE_S)
                if outcome.status != "ok":
                    raise SystemExit(f"cannot pin {inst.name} {cmd}: {outcome.status}")
                entry[cmd] = {"full": digest(outcome.stdout),
                              "invariant": digest(invariant_text(outcome.stdout))}
            print(f"pinned {workload} {inst.name}", file=sys.stderr)
    DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="recompute digests.json for the default seed and exit")
    args = ap.parse_args(argv)
    if not args.pin and args.workload is None:
        ap.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    t_begin = time.perf_counter()
    src = ROOT / "src"
    if not (src / "mcss" / "cli.py").is_file():
        print(f"benchmark: no mcss sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = HERE / "_work" / f"{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.pin:
            pin(workdir)
            return 0
        setup_s, instances, paths = setup(args.workload, args.seed, workdir)
        run = Run(args.seed, instances, paths, load_pins(args.workload), DEADLINE_S, t_begin)
        ctx = context(args, instances, setup_s)
        if args.trace:
            tables, counters, roots, plain, traced = measure_traced(run, args.seconds)
            metrics = layer_metrics(tables, counters, plain, traced)
            ctx["tracing"] = {
                "untraced_pass_s": [m for m, _ in plain],
                "traced_pass_s": [m for m, _ in traced],
                "span_root_s": roots,
                "self_s_sum": [sum(row["self_s"] for row in t.values()) for t in tables],
                "layers": tables[0],
                "counters": counters[0],
            }
        else:
            pass_times = measure(run, args.seconds)
            e2e = run.end_to_end()
            e2e["setup_s"] = setup_s
            e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {name: (e2e[name], unit) for name, unit in END_TO_END.items()}
            ctx["pass_s"] = pass_times
            ctx["command_median_s"] = {f"{n} {c}": v for (n, c), v in run.medians().items()}
            ctx["command_median_measured_s"] = {
                f"{n} {c}": v for (n, c), v in run.medians(raw=True).items()}
        ctx["failed_ratio"] = run.failed / run.attempted
        ctx["failures"] = run.failures[:20]
        result = {
            "correct": run.wrong == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }
        out = HERE / "_out"
        out.mkdir(exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (out / name).write_text(json.dumps({"context": ctx, "result": result}, indent=1) + "\n",
                                encoding="utf-8")
        print(json.dumps({"context": ctx}, sort_keys=True))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
