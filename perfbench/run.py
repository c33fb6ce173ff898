#!/usr/bin/env python3
"""grpdim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli|refute|coarse --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record      # re-record perfbench/oracle.json
    python3 perfbench/run.py --reconcile   # traced figures for the ROADMAP baseline cases

Run it from the root of a grpdim checkout; the program is imported from
``src/``. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``). Lines before it start
with ``#`` and carry the run metadata and per-op detail. Every op is checked
against ``oracle.json``; any mismatch makes the run exit 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REF_S, reference

# ``workloads`` and ``tracer`` import grpdim, so functions import them only
# after import_program has put the checkout's src/ on the path.
HERE = Path(__file__).resolve().parent
ORACLE = HERE / "oracle.json"
SETUP_REPEATS = 5
OUT_DIR = ".perfbench"  # under the checkout root; holds work files and traces


class BenchError(Exception):
    """The benchmark cannot run here; exit 2 without a result line."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("cli", "refute", "coarse"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--oracle", type=Path, default=ORACLE, help="expected outputs")
    p.add_argument("--record", action="store_true", help="re-record the oracle")
    p.add_argument("--reconcile", action="store_true",
                   help="print traced figures for the ROADMAP baseline cases")
    args = p.parse_args(argv)
    if not (args.record or args.reconcile or args.workload):
        p.error("--workload is required")
    return args


def import_program(root: Path):
    """Put the checkout's ``src`` on the path and import grpdim (and its CLI)."""
    if os.environ.get("GRPDIM_WORKERS") is not None:
        raise BenchError("GRPDIM_WORKERS is set; the benchmark runs one worker only")
    src = root / "src"
    if not (src / "grpdim" / "__init__.py").is_file():
        raise BenchError(f"no grpdim sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import grpdim.cli  # noqa: F401  also writes the byte code the CLI children reuse
    return src


def metadata(root: Path, args) -> dict:
    sha, dirty = None, None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                                    capture_output=True, text=True, timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "grpdim_workers_set": os.environ.get("GRPDIM_WORKERS") is not None,
    }


def pin_to_one_cpu() -> "int | None":
    """Keep this process and the CLI children it starts on one CPU.

    The reference that scales every op time then runs on the CPU the op ran
    on, which matters most for a CLI child: unpinned, it can start on the
    other CPU, whose speed the reference did not see.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def normalize(obs):
    return json.loads(json.dumps(obs, sort_keys=True))


def mismatch(expected, observed) -> "str | None":
    """Why an observation differs from its oracle entry, or None if it matches."""
    if expected is None:
        return "no oracle entry"
    observed = normalize(observed)
    if observed == expected:
        return None
    keys = sorted(k for k in set(expected) | set(observed)
                  if expected.get(k) != observed.get(k))
    return "; ".join(f"{k}: expected {expected.get(k)!r}, got {observed.get(k)!r}"
                     for k in keys)


class Checker:
    """Counts attempted and failed ops against the oracle."""

    def __init__(self, oracle: dict):
        self.oracle = oracle
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, op_id: str, observed, error: "str | None" = None) -> None:
        self.attempted += 1
        problem = error or mismatch(self.oracle.get(op_id), observed)
        if problem:
            self.failures.append(f"{op_id}: {problem}")


def cli_launcher(trace_dir: Path):
    """argv prefix that runs one CLI command under the tracer in a child process."""
    launch = HERE / "launch.py"

    def prefix(op_id: str) -> list[str]:
        return [sys.executable, str(launch), str(trace_dir), op_id, repr(time.time())]

    return prefix


def collect_children(trace_dir: Path) -> list[dict]:
    records = []
    for path in sorted(trace_dir.glob("*.json")):
        records.append(json.loads(path.read_text()))
        path.unlink()
    return records


class TracedPasses:
    """Traces every odd pass: in-process ops directly, CLI ops in the launcher."""

    def __init__(self, tr, runner, trace_dir: Path):
        self.tr = tr
        self.runner = runner
        self.trace_dir = trace_dir
        self.records: list[dict] = []
        self.passes: set[int] = set()

    def start(self, i: int) -> None:
        self.passes.add(i)
        self.tr.install()
        if self.runner:
            self.runner.launcher = cli_launcher(self.trace_dir)

    def stop(self) -> None:
        self.tr.uninstall()
        if self.runner:
            self.runner.launcher = None
        self.records.append(self.tr.take())
        self.records.extend(collect_children(self.trace_dir))


def run_passes(ops, rng, seconds, checker, tracing: "TracedPasses | None" = None,
               after_pass=lambda: None):
    """Closed loop: whole passes over the ops, in seeded order, until time is up.

    Returns per-op lists of (pass, seconds, reference seconds) samples and the
    number of passes; the reference time is the mean of the ``reference()``
    calls just before and just after the op. With ``tracing``, odd passes are
    traced and even passes are not. Time spent in ``after_pass`` does not
    count towards ``seconds``.
    """
    import workloads

    samples = {op.id: [] for op in ops}
    started = time.perf_counter()
    passes = 0
    last = 0.0  # duration of the previous pass
    # Start another pass only if it would end before ``seconds`` by at least
    # half its own length, so a run overshoots by at most half a pass.
    while passes < (2 if tracing else 1) or (
            time.perf_counter() - started + last / 2 < seconds):
        pass_started = time.perf_counter()
        traced = tracing is not None and passes % 2 == 1
        if traced:
            tracing.start(passes)
        order = list(ops)
        rng.shuffle(order)
        try:
            ref_before = reference()
            for op in order:
                if traced:
                    tracing.tr.op = op.id
                gc.collect()
                elapsed, observed, error = workloads.timed(op)
                ref_after = reference()
                checker.check(op.id, observed, error)
                samples[op.id].append((passes, elapsed, (ref_before + ref_after) / 2))
                ref_before = ref_after
        finally:
            if traced:
                tracing.stop()
        passes += 1
        last = time.perf_counter() - pass_started
        paused = time.perf_counter()
        after_pass()
        started += time.perf_counter() - paused
    return samples, passes


def per_op_time(samples):
    """An op's raw time in a run: the least of its samples."""
    return min(s[1] for s in samples)


def scaled(elapsed: float, ref: float) -> float:
    """A time scaled to the host speed at which ``reference()`` takes REF_S."""
    return elapsed * REF_S / ref


def per_op_scaled(samples):
    """An op's time in a run: the median of its samples, each scaled by the
    reference timed beside it, so that a slow stretch of the host cancels."""
    return statistics.median(scaled(t, ref) for _, t, ref in samples)


def peak_rss_mb(workload: str) -> float:
    """Peak resident set size: of this process, or of the largest CLI child."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(args, ops, samples, setup_times, peak_mb) -> dict:
    import workloads

    main_kind, beside_kind = workloads.ROLES[args.workload]
    per_op = {op.id: per_op_scaled(samples[op.id]) for op in ops}
    kinds = {op.id: op.kind for op in ops}
    values = {
        "wall_s": (sum(per_op.values()), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "op_p50_ms": (statistics.median(per_op.values()) * 1000, "ms"),
        "main_s": (sum(t for i, t in per_op.items() if kinds[i] == main_kind), "s"),
        "beside_s": (sum(t for i, t in per_op.items() if kinds[i] == beside_kind), "s"),
    }
    for op in ops:
        ts = [t for _, t, _ in samples[op.id]]
        print(f"# op {op.id} kind={op.kind} n={len(ts)} scaled={per_op[op.id]:.4f} "
              f"raw min={min(ts):.4f} median={statistics.median(ts):.4f} max={max(ts):.4f}")
    print(f"# {main_kind}_s={values['main_s'][0]:.4f} {beside_kind}_s="
          f"{values['beside_s'][0]:.4f} (main_s / beside_s on {args.workload})")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(ops, samples, setup_record, pass_records, traced_passes) -> dict:
    import tracer

    setup_totals = tracer.summarize(setup_record)
    pass_totals = tracer.summarize(pass_records)
    n = max(1, len(traced_passes))

    def value(name):
        return setup_totals.get(name, 0.0) + pass_totals.get(name, 0.0) / n

    out = {}
    for layer in tracer.layer_names():
        out[f"{layer}.self_s"] = (value(f"{layer}.self_s"), "s")
    for layer in tracer.CALLS:
        out[f"{layer}.calls"] = (value(f"{layer}.calls"), "count")
    for layer in tracer.BYTES:
        out[f"{layer}.bytes"] = (value(f"{layer}.bytes"), "B")
    nodes = value("search.nodes") + value("search.generic_nodes")
    rejects = value("search.nodes.rejects") + value("search.generic_nodes.rejects")
    out["search.nodes"] = (value("search.nodes"), "count")
    out["search.generic_nodes"] = (value("search.generic_nodes"), "count")
    out["search.reject_share"] = (rejects / nodes if nodes else 0.0, "ratio")
    out["search.d_tried"] = (value("search.d_tried"), "count")
    out["cli.startup_s"] = (value("cli.startup_s"), "s")

    def pass_wall(traced: bool) -> float:
        total = 0.0
        for op in ops:
            total += per_op_time([s for s in samples[op.id]
                                  if (s[0] in traced_passes) == traced])
        return total

    traced_wall = pass_wall(True)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - pass_wall(False), "s")
    return {k: {"value": round(v) if u in ("count", "B") else v, "unit": u}
            for k, (v, u) in out.items()}


def run(args, root: Path, src: Path) -> int:
    import tracer
    import workloads

    meta = dict(metadata(root, args), pinned_cpu=pin_to_one_cpu())
    print("# meta " + json.dumps(meta, sort_keys=True))
    oracle = json.loads(args.oracle.read_text())
    checker = Checker(oracle)
    base = root / OUT_DIR
    workdir = base / f"work-{args.workload}-{os.getpid()}"
    trace_dir = workdir / "child-traces"
    runner = workloads.CliRunner(workdir, child_env(src)) if args.workload == "cli" else None
    rng = random.Random(f"order-{args.seed}")
    try:
        if args.trace:
            tr = tracer.Tracer()
            tr.op = "setup"
            if runner:
                runner.launcher = cli_launcher(trace_dir)
            with tr:
                ops, checks = workloads.setup(args.workload, args.seed, False, runner)
            if runner:
                runner.launcher = None
            setup_record = [tr.take()] + collect_children(trace_dir)
            for op_id, observed in checks:
                checker.check(op_id, observed)
            tracing = TracedPasses(tr, runner, trace_dir)
            samples, passes = run_passes(ops, rng, args.seconds, checker, tracing)
            metrics = per_layer(ops, samples, setup_record, tracing.records, tracing.passes)
            write_spans(base, args, setup_record + tracing.records)
        else:
            setup_times = []

            def timed_setup():
                gc.collect()
                ref_before = reference()
                started = time.perf_counter()
                ops, checks = workloads.setup(args.workload, args.seed, False, runner)
                elapsed = time.perf_counter() - started
                setup_times.append(scaled(elapsed, (ref_before + reference()) / 2))
                for op_id, observed in checks:
                    checker.check(op_id, observed)
                return ops

            peak = []

            def more_setups():
                if not peak:  # before a second copy of the inputs exists
                    peak.append(peak_rss_mb(args.workload))
                if len(setup_times) < SETUP_REPEATS:
                    timed_setup()

            # Repeated set-ups run between passes, so that their median does
            # not rest on one stretch of time; the ops they build are dropped.
            ops = timed_setup()
            samples, passes = run_passes(ops, rng, args.seconds, checker, after_pass=more_setups)
            while len(setup_times) < SETUP_REPEATS:
                timed_setup()
            metrics = end_to_end(args, ops, samples, setup_times, peak[0])
        print(f"# passes={passes} attempted={checker.attempted} failed={len(checker.failures)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in checker.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": metrics,
    }))
    return 0 if not checker.failures else 1


def write_spans(base: Path, args, records) -> None:
    path = base / f"trace-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as fh:
        for rec in records:
            for span_id, name, start, end, parent, op, self_s in rec["spans"]:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "self_s": self_s,
                                     "pid": rec.get("pid")}) + "\n")
    print(f"# spans written to {path.relative_to(base.parent)}")


def record(root: Path, src: Path) -> int:
    """Run every variant of every op once and store what it returned."""
    import workloads

    oracle = {}
    errors = []
    base = root / OUT_DIR
    for name in workloads.WORKLOADS:
        workdir = base / f"record-{name}-{os.getpid()}"
        runner = workloads.CliRunner(workdir, child_env(src)) if name == "cli" else None
        try:
            ops, checks = workloads.setup(name, 0, True, runner)
            for op_id, observed in checks:
                oracle[op_id] = normalize(observed)
            for op in ops:
                elapsed, observed, error = workloads.timed(op)
                if error:
                    errors.append(f"{op.id}: {error}")
                oracle[op.id] = normalize(observed)
                print(f"# recorded {op.id} in {elapsed:.3f}s")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1
    ORACLE.write_text(json.dumps(oracle, sort_keys=True, indent=1) + "\n")
    print(f"# {len(oracle)} entries written to {ORACLE.name}")
    return 0


def reconcile(root: Path) -> int:
    """Traced figures for the ROADMAP's "Recent" cases and open item 4's P9xP9."""
    import grpdim as G
    import tracer
    import workloads

    base = root / OUT_DIR
    base.mkdir(exist_ok=True)
    path = base / "pair50.json"
    G.save(G.tree_window("path", 50)[0], path)
    p60 = workloads.windowed(*G.tree_window("path", 60))
    g8, k8, l8 = workloads.grid(8, 8)
    g9, k9, l9 = workloads.grid(9, 9)
    w60 = G.kl_dad_search(p60[0], p60[2], p60[3], 2)
    w8 = G.kl_dad_search(g8, k8, l8, 2)
    cases = [
        ("validate pair(50) via load", lambda: G.load(path),
         ("groupoid.validate.calls",), "4.9 s"),
        ("P8xP8 d=1 refutation", lambda: G.kl_dad_search(g8, k8, l8, 1),
         ("search.nodes", "search.reject_share"),
         "1.1 s, 429,709 DFS calls"),
        ("P9xP9 d=1 refutation", lambda: G.kl_dad_search(g9, k9, l9, 1),
         ("search.nodes", "search.reject_share"), "open item 4 wants it 5x faster"),
        ("treeable_cover path(60) N=1", lambda: G.treeable_cover(p60[0], p60[1], 1),
         ("coarse.treeable_cover.calls",), "4.3 s"),
        ("dad_to_asdim path(60)", lambda: G.dad_to_asdim(p60[0], w60),
         ("coarse.dad_to_asdim.calls",), "0.8 s"),
        ("dad_to_asdim P8xP8", lambda: G.dad_to_asdim(g8, w8),
         ("coarse.dad_to_asdim.calls",), "0.66 s"),
    ]
    try:
        for label, call, names, roadmap in cases:
            tr = tracer.Tracer()
            with tr:
                started = time.perf_counter()
                call()
                wall = time.perf_counter() - started
            totals = tracer.summarize([tr.take()])
            nodes = totals.get("search.nodes", 0)
            totals["search.reject_share"] = (
                totals.get("search.nodes.rejects", 0) / nodes if nodes else 0.0)
            shown = ", ".join(
                f"{n}={totals.get(n, 0):{',.0f' if n.endswith(('nodes', 'calls')) else '.4g'}}"
                for n in names)
            top = sorted((v, k) for k, v in totals.items() if k.endswith(".self_s"))[-3:]
            print(f"{label} (ROADMAP: {roadmap}): traced wall {wall:.3f} s; {shown}; "
                  "largest self times: "
                  + ", ".join(f"{k}={v:.3f}" for v, k in reversed(top)))
    finally:
        path.unlink(missing_ok=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    try:
        src = import_program(root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    (root / OUT_DIR).mkdir(exist_ok=True)
    if args.record:
        return record(root, src)
    if args.reconcile:
        return reconcile(root)
    return run(args, root, src)


if __name__ == "__main__":
    sys.exit(main())
