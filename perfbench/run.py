"""Benchmark harness for k3chambers, driving the CLI from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload atlas-sparse --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Each op is one in-process call of ``k3chambers.cli.main(argv)`` with stdout
captured, on input files generated from the seed.  Every op is cold: the
``functools`` caches found in the package are cleared before it.  Every
output is checked with the benchmark's own exact arithmetic (checks.py).
A per-op wall deadline (SIGALRM) and an address-space cap (RLIMIT_AS) guard
the process; an op that hits either is counted as failed and recorded with
its inputs.  An op that raises or exits with an unexpected code is counted
as failed too, and is also a check problem.  The first run of each
``chambers`` op is made in a forked child, so that a Fourier-Motzkin
blow-up never sets the peak memory of the benchmark process.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the ops
once untraced and once with spans around every layer (tracing.py) and
reports per-layer metrics and the tracing overhead.  Human-readable lines
come first; the last line of stdout is the JSON result.  The exit code is 1
when an output check fails, 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "_work"
OUT_DIR = BENCH_DIR / "_out"

sys.path.insert(0, str(ROOT))
from perfbench import checks, tracing, workloads  # noqa: E402

PACKAGE = "k3chambers"
MODULES = ("linalg", "model", "zariski", "chambers", "plot", "gallery", "cli")
# address-space cap per workload, about twice the peak address space of the
# workload's ops that complete (32 MB on the atlas workloads, 61 MB on
# pointwise): an FM blow-up hits it within about a second
MEMORY_CAP_MB = {"atlas-sparse": 64, "atlas-dense": 64, "pointwise": 128}
SETUP_RUNS = 21
# kinds whose ops can grow to the memory cap (Fourier-Motzkin in the Weyl
# atlas): their first run is in a forked child, and only ops that complete
# there run in the benchmark process
FORK_KINDS = {"chambers"}
# statuses of an op stopped by a guard; any other failure is a check problem
GUARD_STATUSES = ("deadline", "memory")
COLD_REPEATS = 3
# a repeat faster than this share of the first run means a cache survived
COLD_MIN_RATIO = 0.25
TAIL_BEYOND = 10
# untimed ops before measuring: the first ops of a process run up to 1.7x
# slower than the same ops later on
WARMUP_S = 2.0


class OpDeadline(BaseException):
    """Raised by SIGALRM inside an op; a BaseException so that no handler in
    the program under test swallows it."""


def _on_alarm(signum, frame):
    raise OpDeadline()


@dataclass
class OpResult:
    status: str
    elapsed: float
    code: int | None = None
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    stdout_bytes: int = 0
    svg_bytes: int = 0
    forked: bool = False


def import_package() -> dict:
    """Import the package afresh, so that every set-up pays the import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return {name: importlib.import_module("%s.%s" % (PACKAGE, name)) for name in MODULES}


def find_caches() -> list[tuple[str, object]]:
    """Every module-level functools cache defined in the package."""
    caches = []
    for mod_name in sorted(n for n in sys.modules if n.startswith(PACKAGE + ".")):
        module = sys.modules[mod_name]
        for attr, value in sorted(vars(module).items()):
            if (
                callable(getattr(value, "cache_clear", None))
                and callable(getattr(value, "cache_info", None))
                and getattr(value, "__module__", None) == mod_name
            ):
                caches.append(("%s.%s" % (mod_name, attr), value))
    return caches


def setup(workload: str, seed: int, work: Path):
    # every set-up starts from a collected heap, so that the collections
    # inside it, and their cost, are the same each time
    gc.collect()
    start = time.perf_counter()
    modules = import_package()
    inputs = workloads.make_inputs(workload, seed, modules["gallery"], modules["model"])
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    for name, doc in inputs.documents.items():
        (work / name).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return time.perf_counter() - start, modules, inputs


class Runner:
    """Runs ops cold, under the deadline, and checks their outputs."""

    def __init__(self, modules: dict, inputs: workloads.Inputs, work: Path):
        self.cli = modules["cli"]
        self.work = work
        self.caches = find_caches()
        self.model_caches = [c for name, c in self.caches if name.startswith(PACKAGE + ".model.")]
        self.models = {path: checks.ModelData(doc) for path, doc in inputs.documents.items()}
        self.tracer: tracing.Tracer | None = None
        self.checked: dict[str, str] = {}  # op label -> digest of checked output
        self.cache_hits = 0
        self.cache_misses = 0
        self.caches_left = 0

    def run(self, op: workloads.Op) -> OpResult:
        for _, cache in self.caches:
            cache.cache_clear()
        self.caches_left += sum(c.cache_info().currsize for _, c in self.caches)
        # start each op from a collected heap with the benchmark's own
        # objects frozen out of the collector, as a fresh process would
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        out = io.StringIO()
        status, code = "ok", None
        tracer = self.tracer
        first_span = len(tracer) if tracer is not None else 0
        root = tracer.begin(tracing.ROOT_SPAN) if tracer is not None else None
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, workloads.DEADLINE_S[op.kind])
        try:
            try:
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = self.cli.main(op.argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpDeadline:
            status = "deadline"
        except MemoryError:
            status = "memory"
        except SystemExit as exc:
            status = "exit %s" % (exc.code,)
        except Exception as exc:  # any crash of the program is a failed op
            status = "raised %s: %s" % (type(exc).__name__, exc)
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end(root)
            if status != "ok":
                tracer.recover(first_span)
            self.cache_hits += sum(c.cache_info().hits for c in self.model_caches)
            self.cache_misses += sum(c.cache_info().misses for c in self.model_caches)
        if status == "ok" and code not in workloads.EXPECTED_EXIT[op.kind]:
            status = "exit %s" % (code,)
        if status != "ok":
            problems = [] if status in GUARD_STATUSES else ["%s: %s" % (op.label, status)]
            return OpResult(status, elapsed, code, _digest(op.label, "failed"), problems)

        stdout = out.getvalue()
        svg = (self.work / op.svg).read_bytes() if op.svg else b""
        digest = _digest(op.label, str(code), stdout, svg)
        # bytes already checked need no second check
        problems = [] if self.checked.get(op.label) == digest else self.check(op, code, stdout, svg)
        self.checked[op.label] = digest
        return OpResult(status, elapsed, code, digest, problems,
                        len(stdout.encode("utf-8")), len(svg))

    def run_forked(self, op: workloads.Op) -> OpResult:
        """``run`` in a forked child, which sends its result back through a
        pipe; the child's memory never counts in this process's peak."""
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_end)
            try:
                payload = json.dumps(dataclasses.asdict(self.run(op))).encode("utf-8")
                with os.fdopen(write_end, "wb") as pipe:
                    pipe.write(payload)
            finally:
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            payload = pipe.read()
        _, wait_status, _ = os.wait4(pid, 0)
        if payload:
            result = OpResult(**json.loads(payload))
        else:
            status = "child died, wait status %d" % wait_status
            result = OpResult(status, 0.0, None, _digest(op.label, "failed"),
                              ["%s: %s" % (op.label, status)])
        result.forked = True
        self.checked[op.label] = result.digest
        return result

    def check(self, op: workloads.Op, code: int, stdout: str, svg: bytes) -> list[str]:
        m = self.models[op.model]
        try:
            report = json.loads(stdout)
            if op.kind == "chambers":
                problems = checks.check_chambers(m, report)
            elif op.kind == "decompose":
                problems = checks.check_decompose(m, op.divisor, code, report)
            else:
                problems = checks.check_plot(m, op.meta["res"], report, svg)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            problems = ["malformed report: %r" % (exc,)]
        return ["%s: %s" % (op.label, p) for p in problems]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class Pass:
    results: list[OpResult | None]  # by op index; None where the op did not run
    wall: float


def one_pass(runner: Runner, ops, todo, stop_at: float | None = None, fork=False) -> Pass:
    """Run ops[i] for i in ``todo``; stop early only when ``stop_at`` has passed."""
    start = time.perf_counter()
    results: list[OpResult | None] = [None] * len(ops)
    run = runner.run_forked if fork else runner.run
    for i in todo:
        if stop_at is not None and time.perf_counter() >= stop_at:
            break
        results[i] = run(ops[i])
    return Pass(results, time.perf_counter() - start)


def warm_up(runner: Runner, ops) -> None:
    stop_at = time.perf_counter() + WARMUP_S
    for op in ops:
        runner.run(op)
        if time.perf_counter() >= stop_at:
            break


def measure(runner: Runner, ops, seconds: float) -> tuple[list[OpResult], list[Pass]]:
    """The first run of every op, and the timed passes.

    Ops of FORK_KINDS first run in forked children, untimed.  Then, after
    the warm-up, each kind of op in turn gets an equal share of ``seconds``:
    one full timed pass over its ops that did not fail in a child, then
    passes over those that completed until the share is used.  Without the
    shares, the plot ops took four fifths of every pointwise pass, and each
    decompose op got one or two runs, so that a single held-up run (one in
    a few hundred is held up by about 10 ms here) set the decompose tail.
    A failed op is not repeated: its latency is charged at the deadline
    whatever a repeat would do."""
    probe = one_pass(runner, ops, [i for i, op in enumerate(ops) if op.kind in FORK_KINDS],
                     fork=True)
    first = probe.results[:]
    todo = [i for i, r in enumerate(first) if r is None or r.status == "ok"]
    warm_up(runner, [ops[i] for i in todo])
    kinds = list(dict.fromkeys(ops[i].kind for i in todo))
    passes = []
    for kind in kinds:
        stop_at = time.perf_counter() + seconds / len(kinds)
        mine = [i for i in todo if ops[i].kind == kind]
        passes.append(one_pass(runner, ops, mine))
        for i in mine:
            first[i] = first[i] or passes[-1].results[i]
        again = [i for i in mine if passes[-1].results[i].status == "ok"]
        while again and time.perf_counter() < stop_at:
            passes.append(one_pass(runner, ops, again, stop_at))
    return first, passes


def traced_passes(runner: Runner, modules: dict, ops) -> tuple[Pass, Pass, tracing.Tracer]:
    """Each op untraced, then traced; alternating op by op keeps drift in
    machine speed out of the overhead."""
    tracer = tracing.Tracer()
    untraced, traced = [], []
    for op in ops:
        untraced.append(runner.run(op))
        runner.tracer = tracer
        tracer.install(modules)
        try:
            traced.append(runner.run(op))
        finally:
            tracer.uninstall()
            runner.tracer = None
    return (Pass(untraced, sum(r.elapsed for r in untraced)),
            Pass(traced, sum(r.elapsed for r in traced)), tracer)


def _tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples beyond)."""
    ordered = sorted(values)
    i = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def end_to_end(workload: str, ops, first: list[OpResult], passes: list[Pass],
               setup_s: float) -> tuple[dict, list[str]]:
    """Metrics named in BENCHMARK.json, plus the report lines that
    give them under their per-workload names."""
    ok = [r.status == "ok" for r in first]
    # an op's latency is the median of its timed runs (the fastest run
    # follows the short windows in which this machine runs fast, and spread
    # 0.31 between seeds on pointwise); a failed op has only its first run
    spent = [statistics.median([p.results[i].elapsed for p in passes if p.results[i]]
                               or [first[i].elapsed])
             for i in range(len(ops))]
    # a failed op misses any latency limit: charge it at least its deadline
    latency = [t if ok[i] else max(t, workloads.DEADLINE_S[ops[i].kind])
               for i, t in enumerate(spent)]
    query = "decompose" if workload == workloads.POINTWISE else "chambers"
    q_idx = [i for i, op in enumerate(ops) if op.kind == query]
    q_lat = [latency[i] for i in q_idx]
    p50 = statistics.median(q_lat)
    tail, pct, beyond = _tail(q_lat)
    if workload == workloads.POINTWISE:
        plot_idx = [i for i, op in enumerate(ops) if op.kind == "plot"]
        throughput = sum(ops[i].samples for i in plot_idx if ok[i]) / sum(spent[i] for i in plot_idx)
        names = ("decompose_p50_ms", "decompose_tail_ms", "plot_samples_per_s")
        scale = 1000.0
    else:
        throughput = sum(1 for i in q_idx if ok[i]) / sum(spent[i] for i in q_idx)
        names = ("chambers_p50_s", "chambers_tail_s", "models_per_s")
        scale = 1.0
    failed = len(ops) - sum(ok)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unit = "ms" if scale > 1 else "s"
    lines = [
        "  %-20s %12.4f s    (lower quartile of %d set-ups)" % ("setup_s", setup_s, SETUP_RUNS),
        "  %-20s %12.4f %s" % (names[0], p50 * scale, unit),
        "  %-20s %12.4f %s   (p%.1f, %d of %d %s ops beyond)"
        % (names[1], tail * scale, unit, pct, beyond, len(q_lat), query),
        "  %-20s %12.4f 1/s" % (names[2], throughput),
        "  %-20s %12.4f      (%d of %d ops)" % ("failed_share", failed / len(ops), failed, len(ops)),
        "  %-20s %12.1f MB" % ("peak_rss_mb", rss),
    ]
    metrics = {
        "setup_s": (setup_s, "s"),
        "query_p50_ms": (p50 * 1000.0, "ms"),
        "query_tail_ms": (tail * 1000.0, "ms"),
        "throughput_per_s": (throughput, "1/s"),
        "success_share": (1.0 - failed / len(ops), "share"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, lines


def per_layer(ops, traced: Pass, summary: dict, overhead_s: float, untraced_wall: float,
              runner: Runner) -> dict:
    count, self_s = summary["count"], summary["self_s"]
    positive, longest = summary["positive"], summary["longest_s"]

    def ratio(a, b):
        return a / b if b else 0.0

    fm, nd = count.get("linalg.fm", 0), count.get("linalg.nd", 0)
    plots = sum(1 for op in ops if op.kind == "plot")
    m = {
        "linalg.fm_systems": (fm, "count"),
        "linalg.fm_feasible_ratio": (ratio(positive.get("linalg.fm", 0), fm), "ratio"),
        "linalg.fm_self_s": (self_s.get("linalg.fm", 0.0), "s"),
        "linalg.fm_max_call_s": (longest.get("linalg.fm", 0.0), "s"),
        "linalg.nd_tests": (nd, "count"),
        "linalg.nd_pass_ratio": (ratio(positive.get("linalg.nd", 0), nd), "ratio"),
        "linalg.nd_self_s": (self_s.get("linalg.nd", 0.0), "s"),
    }
    for caller in tracing.ND_CALLERS + ("other",):
        m["linalg.nd_tests_from." + caller] = (summary["nd_by_caller"].get(caller, 0), "count")
    m.update({
        "linalg.solve_calls": (count.get("linalg.solve", 0), "count"),
        "linalg.solve_self_s": (self_s.get("linalg.solve", 0.0), "s"),
        "linalg.det_inv_self_s": (self_s.get("linalg.det_inv", 0.0), "s"),
        "model.lookup_self_s": (self_s.get("model.lookup", 0.0), "s"),
        "model.cache_hits": (runner.cache_hits, "count"),
        "model.cache_misses": (runner.cache_misses, "count"),
        "model.load_self_s": (self_s.get("model.load", 0.0), "s"),
        "zariski.decompose_calls": (count.get("zariski.decompose", 0), "count"),
        "zariski.decompose_self_s": (self_s.get("zariski.decompose", 0.0), "s"),
    })
    for part in ("nd_search", "zariski_atlas", "witness", "criteria", "ade", "weyl_atlas", "bijection"):
        m["chambers.%s_self_s" % part] = (self_s.get("chambers." + part, 0.0), "s")
    m.update({
        "cli.report_self_s": (self_s.get("cli.report", 0.0), "s"),
        "cli.report_bytes": (sum(r.stdout_bytes for r in traced.results), "bytes"),
        "plot.classify_calls_per_plot": (ratio(count.get("plot.classify", 0), plots), "count"),
        "plot.classify_self_s": (self_s.get("plot.classify", 0.0), "s"),
        "plot.assemble_self_s": (self_s.get("plot.render", 0.0), "s"),
        "plot.svg_bytes": (sum(r.svg_bytes for r in traced.results), "bytes"),
    })
    for layer in tracing.LAYERS:
        m["layer.%s_self_s" % layer] = (
            sum(v for k, v in self_s.items() if k.split(".")[0] == layer), "s")
    m.update({
        "trace.overhead_s": (overhead_s, "s"),
        "trace.overhead_share": (ratio(overhead_s, untraced_wall), "ratio"),
    })
    return m


def cold_repeat(runner: Runner, ops, passes: list[Pass]) -> float:
    """Re-run the query op of median latency: the cold repeat must take about
    as long as its first timed run (a surviving cache would make it nearly
    free)."""
    timed = {i: r for p in reversed(passes) for i, r in enumerate(p.results) if r is not None}
    cands = sorted((r.elapsed, i) for i, r in timed.items()
                   if r.status == "ok" and ops[i].kind in ("chambers", "decompose"))
    elapsed, i = cands[len(cands) // 2]
    repeats = [runner.run(ops[i]).elapsed for _ in range(COLD_REPEATS)]
    return statistics.median(repeats) / elapsed


def _git_commit() -> str | None:
    try:
        # --git-dir: outside a git checkout, git must not look in parent
        # directories
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(args) -> int:
    if not (SRC / PACKAGE / "cli.py").is_file():
        print("perfbench: no %s package under %s" % (PACKAGE, SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # cache the package's bytecode under src/, as an installed package has
    # it, whatever PYTHONDONTWRITEBYTECODE says: without it every set-up
    # compiles the package and takes twice as long
    sys.dont_write_bytecode = False
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = MEMORY_CAP_MB[args.workload] << 20
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    signal.signal(signal.SIGALRM, _on_alarm)

    work = WORK_DIR / ("%s-seed%d" % (args.workload, args.seed))
    setups = []
    for _ in range(SETUP_RUNS):
        elapsed, modules, inputs = setup(args.workload, args.seed, work)
        setups.append(elapsed)
    # the lower quartile: interference from other tenants can slow a run of
    # consecutive set-ups threefold, which moved the median between seeds
    setup_s = statistics.quantiles(setups, n=4)[0]
    ops = inputs.ops
    runner = Runner(modules, inputs, work)
    home = os.getcwd()
    os.chdir(work)
    try:
        if args.trace:
            warm_up(runner, ops)
            untraced, traced, tracer = traced_passes(runner, modules, ops)
            first = untraced.results
            passes = [untraced]
            later_passes = [traced]
        else:
            first, passes = measure(runner, ops, args.seconds)
            later_passes = passes
        repeat_ratio = cold_repeat(runner, ops, passes)
    finally:
        os.chdir(home)

    problems = [p for r in first for p in r.problems]
    mismatched = 0
    for later in later_passes:
        for i, r in enumerate(later.results):
            if r is not None and r is not first[i] and first[i].status == "ok":
                problems.extend(r.problems)
                mismatched += r.digest != first[i].digest
    if mismatched:
        problems.append("%d repeated ops gave different output bytes" % mismatched)
    if runner.caches_left:
        problems.append("%d cache entries survived cache_clear" % runner.caches_left)
    if repeat_ratio < COLD_MIN_RATIO:
        problems.append("cold repeat took %.3f of the first run: a cache survived" % repeat_ratio)

    digest = _digest(*(r.digest for r in first))
    failures = [dict(ops[i].meta, status=r.status, elapsed_s=round(r.elapsed, 4))
                for i, r in enumerate(first) if r.status != "ok"]
    if args.trace:
        overhead = traced.wall - passes[0].wall
        metrics = per_layer(ops, traced, tracer.summary(), overhead, passes[0].wall, runner)
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / ("spans-%s-seed%d.tsv.gz" % (args.workload, args.seed))
        tracer.write(span_file)
        lines = ["  %-34s %14.6g %s" % (k, v, u) for k, (v, u) in metrics.items()]
        lines.append("  spans written to %s" % span_file.relative_to(ROOT))
    else:
        metrics, lines = end_to_end(args.workload, ops, first, passes, setup_s)

    shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "deadline_s": workloads.DEADLINE_S,
        "memory_cap_mb": cap >> 20,
        "setup_runs_s": setups,
        "passes": len(passes),
        "forked_first_runs": sum(1 for r in first if r.forked),
        "spans": len(tracer) if args.trace else 0,
        "ops": len(ops),
        "failures": failures,
        "op_latency_s": {op.label: [round(p.results[i].elapsed, 6) for p in passes if p.results[i]]
                         for i, op in enumerate(ops)},
        "caches_cleared": [name for name, _ in runner.caches],
        "cold_repeat_ratio": repeat_ratio,
        "digest": digest,
        "problems": problems[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=2) + "\n")

    print("%s seed %d: %d ops, %d pass(es), %d failed, python %s, commit %s, nproc %s"
          % (args.workload, args.seed, len(ops), len(passes), len(failures),
             record["python"], record["commit"], record["nproc"]))
    print("  deadline %s s, memory cap %d MB" % (
        ", ".join("%s %g" % kv for kv in workloads.DEADLINE_S.items()), record["memory_cap_mb"]))
    for line in lines:
        print(line)
    for f in failures:
        print("  failed op: %s" % json.dumps(f, sort_keys=True))
    for p in problems[:20]:
        print("  CHECK FAILED: %s" % p)
    print("  cold repeat ratio %.3f, caches cleared: %s" % (
        repeat_ratio, ", ".join(name for name, _ in runner.caches) or "none"))
    print("  output digest sha256:%s" % digest)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"]["%s.%s" % (workload, name)] = value
    if status == 2:
        return 2
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
