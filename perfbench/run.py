"""The repo benchmark: four runtime workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload session_durable --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing and
``repro.obs`` off.  ``--trace 1`` is the separate traced run: the
workload once untraced and once through :class:`~perfbench.tracing.Traced`
proxies (their ratio is ``trace.overhead_frac``), then the layer ledger
(:mod:`perfbench.ledger`).  Metric names and units come from
``BENCHMARK.json``; every metric is printed as ``name = value unit``
with its sample count, and the last line of standard output is one
JSON object ``{correct, attempted, failed, metrics}``.  The full
report (environment record, percentiles with sample counts, the ledger
table, per-span self time) goes to ``.perfbench_out/``, with the spans
of a traced run beside it as JSON lines.

``session_durable`` and ``batch_serial`` run here like the others but
are not listed in ``BENCHMARK.json``: on a shared 2-CPU host their
``jobs_per_s`` moved by 0.25 to 0.5 (session_durable) and 0.14 to 0.32
(batch_serial) of its median between runs of ten seeds, up to and past
the largest bound a metric may have.  The host, not the runs, drifts:
one seed repeated back to back read 5 100 to 7 000 jobs/s on
batch_serial, on whichever CPU it was held.  Their layers are still
measured by every traced run, through the ledger's chains and its
``adapter.*`` steps.  The latency percentiles are
printed but not gated, for the same reason (see ``bench.REPORTED``).

Per-layer metrics come from the ledger, which runs the same job sets
whichever workload is traced.  Three kinds come from the traced drive
of the workload itself: ``trace.overhead_frac``; ``session.flush.*``
and ``session.executed_frac`` on ``session_durable``, where a Session
serves the open loop (elsewhere they come from the ledger's Session
step); and, on ``session_durable`` only, ``gen.late_ms`` (how late the
open-loop generator ran) and ``session.repeat_frac`` (the share of
declared repeats the Session served).  Those two are printed but not
listed in ``BENCHMARK.json`` (see ``bench.SESSION_ONLY``); other
workloads print them as absent.

Exit codes: 0 correct; 1 a result differed from the reference, was
missing or raised, or the freshness guard tripped; 2 the repo's
sources are missing or a required metric could not be measured; 3 the
host has fewer CPUs than the workload's workers (recorded as skipped).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"


def _import_repo():
    """Put the checkout's sources first on the path; fail without them."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ImportError(f"repro imported from {repro.__file__}, not from {src}")


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _children() -> list[int]:
    """Pids of this process's direct children, zombies included."""
    me = os.getpid()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # Fields after the parenthesised command: state, ppid, ...
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def _reap(pid: int, timeout: float) -> bool:
    """Wait up to ``timeout`` seconds for child ``pid``; True once reaped."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    The workloads close their pools and nodes, but CPython leaves the
    ``multiprocessing`` resource tracker (started by the first
    shared-memory block of ``ensemble_process``) to exit on its own after
    its parent has gone.  It is stopped here, after any other child still
    alive has been terminated and reaped, so no forked worker holds the
    tracker's pipe open.
    """
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    if Path("/proc").is_dir():
        for pid in _children():
            if pid == tracker_pid:
                continue
            if not _reap(pid, 0.0):
                os.kill(pid, signal.SIGTERM)
                if not _reap(pid, 5.0):
                    os.kill(pid, signal.SIGKILL)
                    _reap(pid, 5.0)
    if tracker_pid is not None:
        # Closing the tracker's pipe ends it; it ignores SIGTERM.
        os.close(tracker._fd)
        tracker._fd = tracker._pid = None
        if not _reap(tracker_pid, 10.0):
            os.kill(tracker_pid, signal.SIGKILL)
            _reap(tracker_pid, 5.0)


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _import_repo()
        bench = spec()
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2

    from perfbench import bench as B

    if args.workload not in B.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    metric_list = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in metric_list}
    shown = {**units, **(B.SESSION_ONLY if args.trace else B.REPORTED)}
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        report = B.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if report.spans is not None:
        report.spans.write(OUT / f"spans-{stem}.jsonl")
    print("env " + json.dumps(report.env, sort_keys=True))
    if report.skipped:
        print(f"skipped: {report.skipped}")
        (OUT / f"{stem}.json").write_text(json.dumps(report.record(shown), indent=1, default=str))
        return 3
    for line in report.lines(shown):
        print(line)
    (OUT / f"{stem}.json").write_text(json.dumps(report.record(shown), indent=1, default=str))
    missing = [name for name in units if name not in report.metrics]
    if missing and report.correct:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": report.metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in report.metrics
        },
    }
    print(json.dumps(result))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
