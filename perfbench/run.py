"""Benchmark of taubench, end to end and per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout: the package is loaded from its `src/`
directory and outputs are validated against its `schemas/`.  Workloads:

  suite_quick    fresh `taubench --seed S' suite quick` processes
  graph_cold     fresh intersect / graphs enumerate / verify processes
  graph_session  one library process; enumeration is paid in set-up

A round is a workload's fixed list of operations.  The run repeats whole
rounds while the next one is expected to end within S seconds (at least
one round); graph_session splits them over SETUP_REPEATS session processes.
The run also times COLD_STARTS fresh `taubench intersect -g 0 -n 3`
processes in small groups spread over the whole run, whenever no other
child is alive.  Every time is scaled to a reference host speed measured
by probes around it (pace.py).  With --trace 1 the first round runs untraced
and the following rounds run under the tracer, which yields the per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Files of the run go to
perfbench/results/<workload>-seed<N>-trace<T>/.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import reference
from inputs import BLOCKS, GENUS_HALF_DEGREES, session_inputs, suite_seed
from pace import PROBE_EVERY, Pace
from tracer import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_REPEATS = 3
COLD_STARTS = 16
RUN_LIMIT_S = 165  # children still running then are killed, so a run ends within 180 s
MODULES = ("cli", "suite", "ribbon", "exact", "kdv", "fock", "schur", "wick", "torsion")
COLD_ARGS = ("intersect", "-g", "0", "-n", "3")

LAYER_TIMES = (
    "suite.run", "ribbon.enumerate", "ribbon.extract", "ribbon.graph_sum",
    "exact.solve", "kdv.assemble", "kdv.residual", "kdv.mutation",
    "fock.closure", "fock.target", "schur.kp", "wick.moment", "wick.match",
    "wick.numeric", "torsion.check",
)
LAYER_COUNTS = (
    "ribbon.enumerate_calls", "ribbon.classes", "ribbon.sample_points",
    "ribbon.graph_sum_calls", "exact.series_new", "exact.series_mul",
    "kdv.mutation_entries", "fock.closure_checks", "fock.window_monomials",
    "schur.partitions_checked", "wick.matchings", "torsion.complexes",
)


@dataclass
class Child:
    """A finished child process: exit code (None if killed), output, start
    and end on the perf_counter clock, the seconds it was held for probes,
    and the peak RSS read from its own rusage."""

    code: int | None
    out: bytes
    err: bytes
    start: float
    end: float
    held: float
    rss_mb: float

    @property
    def wall(self) -> float:
        return self.end - self.start - self.held


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # warm-up writes the bytecode the runs load
    return env


def _reap(proc, ended=None) -> float:
    """Wait for proc, unless `ended` already holds its (status, rusage);
    return its own peak RSS in MB."""
    _, status, usage = (None, *ended) if ended else os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024


def run_child(argv, deadline: float, pace: Pace | None = None) -> Child:
    """Run argv to its end, or kill it at `deadline`.  With `pace`, hold
    the child for a compute probe every PROBE_EVERY seconds (pace.py)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    fds = (proc.stdout.fileno(), proc.stderr.fileno())
    chunks = {fd: [] for fd in fds}
    killed = False
    held, ended = 0.0, None
    next_probe = start + PROBE_EVERY
    with selectors.DefaultSelector() as selector:
        for stream in (proc.stdout, proc.stderr):
            selector.register(stream, selectors.EVENT_READ)
        while selector.get_map():
            now = time.perf_counter()
            remaining = deadline - now
            if remaining <= 0 and not killed and not ended:
                proc.kill()
                killed = True
            timeout = max(remaining, 0.5)
            probing = pace is not None and not killed and not ended
            events = selector.select(timeout=min(timeout, max(next_probe - now, 0))
                                     if probing else timeout)
            if probing and not events and time.perf_counter() >= next_probe:
                seconds, ended = pace.probe_held(proc.pid)
                held += seconds
                next_probe = time.perf_counter() + PROBE_EVERY
            for key, _ in events:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    selector.unregister(key.fileobj)
                    key.fileobj.close()
    rss_mb = _reap(proc, ended)
    end = time.perf_counter()
    out, err = (b"".join(chunks[fd]) for fd in fds)
    return Child(None if killed else proc.returncode, out, err, start, end, held, rss_mb)


def guarded(check, *args):
    """check(*args), with an output of unexpected shape reported as a
    problem instead of stopping the run."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return [f"unexpected output layout: {exc!r}"]


class Run:
    """Operation accounting, child processes and trace files of one run."""

    def __init__(self, args):
        self.workload, self.seed, self.trace = args.workload, args.seed, bool(args.trace)
        self.seconds = args.seconds
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.schemas = checks.Schemas(ROOT / "schemas")
        self.attempted = self.failed = self.wrong = 0
        self.first_output: dict[tuple, bytes] = {}
        self.failures: list[str] = []
        self.traces = 0
        self.pace = Pace(child_env(), ROOT)
        self.cold_walls: list[float] = []  # scaled to the reference host speed
        self.untraced: list[float] = []  # scaled round walls
        self.traced: list[float] = []
        self.cold_files: list[tuple[Path, float]] = []  # (trace file, speed factor)
        self.raw: dict[str, list[float]] = {"cold_start_s": [], "setup_s": [], "wall_s": []}

    def record(self, name: str, completed: bool, problems, key=None, output=None) -> None:
        """Count one operation.  `completed` is false when the program
        errored (exit code, exception, timeout); problems are wrong outputs.
        Outputs under the same key must repeat byte for byte."""
        problems = list(problems)
        if key is not None and completed:
            first = self.first_output.setdefault(key, output)
            if first != output:
                problems.append("output differs from the first call byte for byte")
        self.attempted += 1
        if not completed or problems:
            self.failed += 1
            self.wrong += bool(completed)
            detail = "; ".join(problems)[:2000] if completed else "did not complete"
            self.failures.append(f"{name}: {detail}")
            print(f"FAILED {name}: {detail[:300]}", file=sys.stderr)

    def trace_path(self, kind: str) -> Path:
        self.traces += 1
        return self.out / f"trace-{self.traces:04d}-{kind}.json"

    def cli(self, args, traced: bool, kind: str = "op") -> tuple[Child, Path | None]:
        """One CLI process.  An operation (not a cold start) is followed by
        a compute probe, and held for probes while it runs unless traced,
        since its spans would count the time held."""
        if traced:
            path = self.trace_path(kind)
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(path), *args]
        else:
            path = None
            argv = [sys.executable, "-m", "taubench.cli", *args]
        if kind == "cold":
            return run_child(argv, self.deadline), path
        child = run_child(argv, self.deadline, None if traced else self.pace)
        self.pace.compute()
        return child, path

    def scaled(self, kind: str, child: Child) -> float:
        """child's wall time at the reference host speed (see pace.py)."""
        return child.wall * self.pace.factor(kind, child.start, child.end)

    def record_cli(self, args, child: Child, check) -> None:
        name = "taubench " + " ".join(args)
        if child.code != 0:
            self.record(name, False, [])
            print(child.err.decode(errors="replace")[-500:], file=sys.stderr)
            return
        self.record(name, True, guarded(check, child.out.decode()), key=tuple(args),
                    output=child.out)

    def rounds(self, do_round, seconds: float) -> None:
        """Run whole rounds while the next one is expected to end within
        `seconds`, at least one.  do_round(traced) -> scaled wall.  The
        first round of a traced run is untraced, and at least one traced
        round follows."""
        start = time.perf_counter()
        durations = []  # elapsed time of each round of the kind that repeats
        while True:
            traced = self.trace and bool(self.untraced)
            begin = time.perf_counter()
            (self.traced if traced else self.untraced).append(do_round(traced))
            now = time.perf_counter()
            if traced or not self.trace:
                durations.append(now - begin)
            if not durations:
                continue
            expected = statistics.median(durations)
            if now - start + expected > seconds or now + expected > self.deadline - 10:
                return

    def setup_warm_up(self) -> float:
        """Median of SETUP_REPEATS processes that import every module, the
        first of which writes the bytecode the timed processes load."""
        code = "import " + ", ".join(f"taubench.{m}" for m in MODULES)
        walls = []
        self.pace.spawn()
        for _ in range(SETUP_REPEATS):
            child = run_child([sys.executable, "-c", code], self.deadline)
            if child.code != 0:
                raise SystemExit(f"warm-up import failed: {child.err.decode()[-500:]}")
            self.pace.spawn()
            walls.append(self.scaled("spawn", child))
            self.raw["setup_s"].append(child.wall)
        return statistics.median(walls)

    def cold_starts(self, count: int) -> None:
        """Time one group of `count` of the run's COLD_STARTS processes,
        each between two spawn probes."""
        if count:
            self.pace.spawn()
        for _ in range(count):
            child, path = self.cli(COLD_ARGS, self.trace, kind="cold")
            self.pace.spawn()
            factor = self.pace.factor("spawn", child.start, child.end)
            self.cold_walls.append(child.wall * factor)
            self.raw["cold_start_s"].append(child.wall)
            self.cold_files += [(path, factor)] if path else []
            self.record_cli(COLD_ARGS, child, lambda t: checks.check_intersect(self.schemas, 0, 3, t))


# ---------------------------------------------------------------------------
# Workloads: each runs its rounds into run.untraced / run.traced and returns
# (setup_s, peak RSS, traced-round trace files, CLI processes per round)
# ---------------------------------------------------------------------------


def spread(total: int, slots: int) -> list[int]:
    """`total` split over `slots` places as evenly as possible."""
    return [total // slots + (i < total % slots) for i in range(slots)]


def cli_workload(run: Run, ops):
    """ops: [(args, check(text) -> problems)], run in order as one round.
    Cold-start processes go before the rounds and after each operation of
    the first round; a round's wall time is the sum of its processes'
    scaled wall times."""
    setup = run.setup_warm_up()
    rss: list[float] = []
    round_files: list[list[tuple[Path, float]]] = []
    groups = spread(COLD_STARTS, len(ops) + 1)
    run.cold_starts(groups[0])
    run.pace.compute()

    def do_round(traced: bool) -> float:
        first = not (run.untraced or run.traced)
        done = []
        for (args, _), probes in zip(ops, groups[1:]):
            done.append(run.cli(args, traced))
            run.cold_starts(probes if first else 0)
        for (args, check), (child, _) in zip(ops, done):
            run.record_cli(args, child, check)
        factors = [run.pace.factor("compute", child.start, child.end) for child, _ in done]
        if traced:
            round_files.append([(path, f) for (_, path), f in zip(done, factors)])
        else:
            rss.extend(child.rss_mb for child, _ in done)
            run.raw["wall_s"].append(sum(child.wall for child, _ in done))
        return sum(child.wall * f for (child, _), f in zip(done, factors))

    run.rounds(do_round, run.seconds)
    return setup, max(rss), round_files, len(ops)


def suite_quick(run: Run):
    seed = suite_seed(run.seed)
    args = ("--seed", str(seed), "suite", "quick")
    return cli_workload(run, [(args, lambda text: checks.check_suite(run.schemas, seed, text))])


def graph_cold(run: Run):
    ops = []
    for g, n in BLOCKS:
        block = ("-g", str(g), "-n", str(n))
        ops.append((("intersect", *block),
                    lambda t, g=g, n=n: checks.check_intersect(run.schemas, g, n, t)))
        ops.append((("--format", "csv", "intersect", *block),
                    lambda t, g=g, n=n: checks.check_intersect_csv(g, n, t)))
    rooted: dict[int, list] = {}

    def graphs_check(text, g, n):
        problems, count = checks.check_graphs(run.schemas, g, n, text)
        darts = 6 * (n + 2 * g - 2)
        seen = rooted.setdefault(darts, [])
        seen.append(count)
        # the last block of a dart count closes the sum over that count
        if len(seen) % 2 == 0 and sum(seen[-2:]) != reference.rooted_trivalent_maps(darts):
            problems.append(f"{darts}-dart rooted maps {sum(seen[-2:])}, "
                            f"reference {reference.rooted_trivalent_maps(darts)}")
        return problems

    for g, n in BLOCKS:
        ops.append((("graphs", "enumerate", "--genus", str(g), "--faces", str(n)),
                    lambda t, g=g, n=n: graphs_check(t, g, n)))
    for cap in (8, 10):
        for which in ("kdv", "string"):
            ops.append((("--cap", str(cap), "verify", which),
                        lambda t, w=which: checks.check_verify(run.schemas, w, t)))
    return cli_workload(run, ops)


class Session:
    """The graph_session child process, spoken to one JSON line at a time."""

    def __init__(self, run: Run):
        self.run = run
        self.held = 0.0  # seconds the process was held for probes
        self.holding = True  # false in traced rounds, whose spans would count it
        run.pace.compute()
        start = self.next_probe = time.perf_counter()
        self.next_probe += PROBE_EVERY
        self.stderr = open(run.out / "session-stderr.txt", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "session.py"), str(run.seed)],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self.stderr,
        )
        self.buffer = b""
        if self._read() != {"ready": True}:
            raise SystemExit("graph_session process did not become ready")
        end = time.perf_counter()
        run.pace.compute()
        run.raw["setup_s"].append(end - start - self.held)
        self.setup_s = (end - start - self.held) * run.pace.factor("compute", start, end)

    def _read(self):
        """The next JSON line; the process is held for a compute probe every
        PROBE_EVERY seconds while it works."""
        while b"\n" not in self.buffer:
            now = time.perf_counter()
            remaining = self.run.deadline - now
            ready = selectors.DefaultSelector()
            ready.register(self.proc.stdout, selectors.EVENT_READ)
            due = self.next_probe if self.holding else float("inf")
            events = ready.select(timeout=max(min(remaining, due - now), 0))
            ready.close()
            if not events and remaining > 0 and time.perf_counter() >= due:
                seconds, ended = self.run.pace.probe_held(self.proc.pid)
                if ended:
                    self.rss_mb = _reap(self.proc, ended)
                    self.stderr.close()
                    raise SystemExit("graph_session process ended")
                self.held += seconds
                self.next_probe = time.perf_counter() + PROBE_EVERY
                continue
            data = os.read(self.proc.stdout.fileno(), 1 << 20) if events else b""
            if not data:
                self.close()
                raise SystemExit("graph_session process ended or timed out")
            self.buffer += data
        line, self.buffer = self.buffer.split(b"\n", 1)
        return json.loads(line)

    def round(self, trace_path):
        """One round: its reply, its wall time from the request to the
        reply less the time held, and the speed factor over the round."""
        command = json.dumps({"trace": str(trace_path) if trace_path else None})
        held, self.holding = self.held, trace_path is None
        start = time.perf_counter()
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.flush()
        reply = self._read()
        end = time.perf_counter()
        self.run.pace.compute()
        wall = end - start - (self.held - held)
        return reply, wall, self.run.pace.factor("compute", start, end)

    def close(self) -> float:
        if self.proc.returncode is None:
            self.proc.stdin.close()
            if self.run.deadline < time.perf_counter():
                self.proc.kill()
            self.proc.stdout.read()
            self.rss_mb = _reap(self.proc)
            self.stderr.close()
        return self.rss_mb


def graph_session(run: Run):
    """SETUP_REPEATS session processes in turn; each is set up once and then
    runs rounds for its share of the run.  Cold-start processes go before
    the first session and after each one."""
    sums, match = session_inputs(run.seed)
    names = ([f"kontsevich_sum{(g, n)}" for g, n, _ in sums]
             + [f"kontsevich_match N={s} order {o}" for s, o, _ in match]
             + [f"genus_expansion tr M^{2 * k}" for k in GENUS_HALF_DEGREES]
             + ["base_table", "mutation_report"])
    setups: list[float] = []
    rss: list[float] = []
    round_files: list[list[tuple[Path, float]]] = []

    def do_round(session: Session, traced: bool) -> float:
        path = run.trace_path("round") if traced else None
        reply, wall, factor = session.round(path)
        if traced:
            round_files.append([(path, factor)])
        else:
            run.raw["wall_s"].append(wall)
        outputs = reply["outputs"]
        flat = outputs["sums"] + outputs["match"] + outputs["genus"] + [
            outputs["base_table"], outputs["mutation"]]
        per_op = guarded(checks.check_session_round, outputs, sums, match)
        if len(per_op) != len(names):  # a layout error, given to every operation
            per_op = [per_op] * len(names)
        for i, (name, item, problems) in enumerate(zip(names, flat, per_op)):
            completed = "error" not in item
            output = json.dumps(item, sort_keys=True).encode()
            run.record(name, completed, problems if completed else [item["error"]],
                       key=("session", i), output=output)
        return wall * factor

    groups = spread(COLD_STARTS, SETUP_REPEATS + 1)
    run.cold_starts(groups[0])
    for probes in groups[1:]:
        session = Session(run)
        setups.append(session.setup_s)
        try:
            run.rounds(lambda traced: do_round(session, traced), run.seconds / SETUP_REPEATS)
        finally:
            rss.append(session.close())
        run.cold_starts(probes)
    return statistics.median(setups), max(rss), round_files, 0


WORKLOADS = {"suite_quick": suite_quick, "graph_cold": graph_cold, "graph_session": graph_session}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def layer_metrics(round_files, cold_files, processes, untraced, traced) -> dict:
    times, counts = [], []
    imports = []
    for files in round_files:
        t: dict[str, float] = {}
        c: dict[str, int] = {}
        for path, factor in files:
            data = json.loads(path.read_text())
            for layer, value in self_times(data["spans"]).items():
                t[layer] = t.get(layer, 0.0) + value * factor
            for name, value in data["counts"].items():
                c[name] = c.get(name, 0) + value
            if "import_s" in data:
                imports.append(data["import_s"] * factor)
        times.append(t)
        counts.append(c)
    for path, factor in cold_files:
        imports.append(json.loads(path.read_text())["import_s"] * factor)
    metrics = {
        "cli.import_s": (statistics.median(imports), "s"),
        "cli.processes": (processes, "count"),
        "trace.overhead_s": (statistics.median(traced) - untraced[0], "s"),
    }
    for layer in LAYER_TIMES:
        metrics[f"{layer}_s"] = (statistics.fmean(t.get(layer, 0.0) for t in times), "s")
    for name in LAYER_COUNTS:
        metrics[name] = (counts[0].get(name, 0), "count")
    if any(c != counts[0] for c in counts):
        print(f"note: counts differ between traced rounds: {counts}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "taubench" / "cli.py").is_file() or not (ROOT / "schemas").is_dir():
        print(f"perfbench: no taubench checkout around {BENCH} (need src/taubench "
              "and schemas/)", file=sys.stderr)
        return 2
    run = Run(args)
    setup, rss, round_files, processes = WORKLOADS[args.workload](run)
    if run.trace:
        metrics = layer_metrics(round_files, run.cold_files, processes, run.untraced, run.traced)
    else:
        metrics = {
            "wall_s": (statistics.median(run.untraced), "s"),
            "setup_s": (setup, "s"),
            "cold_start_s": (statistics.median(run.cold_walls), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
    raw = {k: statistics.median(v) for k, v in run.raw.items() if v}
    raw.update({f"probe_{k}_s": statistics.median(d for _, d in v)
                for k, v in run.pace.probes.items() if v})
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run.out / "failures.txt").write_text("".join(f + "\n" for f in run.failures))
    # the unscaled wall times go to the result file only, for comparison
    (run.out / "result.json").write_text(json.dumps(dict(result, raw=raw), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
