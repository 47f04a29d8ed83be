"""``backend="dist"``: multi-node sharded execution for the runtime.

The coordinator side of the comm wire protocol.  A
:class:`DistBackend` keeps the same master state as
:class:`repro.runtime.core.ProcessBackend` — one
:class:`~repro.runtime.lifecycle.ProgramTable` of interned program ids,
warm result memo and EWMA cost model — but instead of one process pool
it drives ``nodes`` node workers through a
:class:`repro.comm.Communicator`:

* **Sharding.**  Every program's *content key* hashes to a home node
  (``sha1(key) mod nodes``); shard messages seed each node with
  exactly its slice, so a node prepares only the programs it will be
  asked to run.  Chunks route to the home node of their entries, and
  any not-yet-seeded program rides in the chunk's ``shipped`` dict —
  the same at-most-once-per-chunk mechanism the process pool uses.
* **Determinism.**  Results are all-gathered by chunk id into
  slot-addressed unique-result positions, so arrival order — which
  races across nodes — never touches result order: a distributed
  sweep is byte-identical to :class:`~repro.runtime.core.SerialBackend`.
* **Failure.**  A lost node surfaces as
  :class:`~repro.faults.chaos.WorkerCrash` (the supervisor's existing
  crash vocabulary): its in-flight chunks are requeued, the node is
  restarted under a bumped generation and re-sharded, and the sweep
  continues — a chaos-killed-node run equals a clean run exactly.
  Past ``max_node_restarts`` the remainder degrades to local serial
  execution, mirroring the supervisor's own last resort.
* **Telemetry.**  Chunk payloads carry the current
  :class:`~repro.obs.telemetry.TraceContext`; node-side deltas ride
  home inside the stats dict and are absorbed with PR 7's
  :func:`~repro.obs.telemetry.absorb_chunk_telemetry` — zero new
  telemetry plumbing.

Composes both ways: ``"journaled:dist"`` journals over it,
``"supervised:dist"`` drives its ``submit_chunk``/``recover`` surface
for deadlines/hedging/quarantine on top of node restarts.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pickle
import threading
import time
from collections import Counter, deque
from collections.abc import Sequence
from concurrent.futures import FIRST_COMPLETED, Future, wait
from typing import Any

from repro.comm import Communicator, NodeLost, create_communicator
from repro.obs.instrument import OBS
from repro.obs.telemetry import current_context
from repro.runtime import core as _core
from repro.runtime.lifecycle import (
    ChunkSettler,
    ProgramTable,
    dispatch_summary,
    enter_close,
    mark_open,
)
from repro.runtime.workload import Job, Workload

__all__ = ["DistBackend"]


def _crash() -> type[Exception]:
    # Late import: faults.chaos imports runtime.core; keep comm's
    # import graph acyclic at module load.
    from repro.faults.chaos import WorkerCrash

    return WorkerCrash


class DistBackend:
    """Sharded execution across node workers behind one communicator.

    ``topology`` defaults to ``"hierarchical"`` when each node gets
    more than one worker, else ``"naive"``; tests pass
    ``"single_node"`` for in-process loopback nodes.  The communicator
    (and its node subprocesses) is created lazily on first use and
    survives across ``execute`` calls — warm node pools, warm shards.
    """

    name = "dist"

    def __init__(
        self,
        workload: Workload,
        nodes: int = 2,
        *,
        workers_per_node: int | None = None,
        topology: str | None = None,
        chunksize: int | None = None,
        memo_size: int = 4096,
        table_size: int = 4096,
        max_node_restarts: int = 4,
        chaos: Any = None,
        connect_timeout: float = 30.0,
    ) -> None:
        if nodes < 1:
            raise ValueError("need at least one node")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be >= 1 (or None for adaptive dispatch)")
        self.workload = workload
        self.nodes = nodes
        cpu = os.cpu_count() or 1
        self.workers_per_node = (
            workers_per_node if workers_per_node is not None else max(1, cpu // nodes)
        )
        if topology is None:
            topology = "hierarchical" if self.workers_per_node > 1 else "naive"
        self.topology = topology
        self.chunksize = chunksize
        self.max_node_restarts = max_node_restarts
        self.chaos = chaos
        self.connect_timeout = connect_timeout
        #: Total worker estimate — the supervisor sizes chunks off this.
        self.workers = nodes * max(1, self.workers_per_node)
        self.last_cache_stats: dict[str, int] = dict(_core._ZERO_STATS)
        self.last_dispatch: dict[str, Any] = {}
        self.comm: Communicator | None = None
        self._owner_pid = os.getpid()
        self._receiver: threading.Thread | None = None
        self._stop = threading.Event()
        # Master-side intern state, the same table ProcessBackend keeps.
        self._table = ProgramTable(workload, table_size=table_size, memo_size=memo_size)
        self._home_cache: dict[int, int] = {}
        # Per-node shard state.
        self._generation = [0] * nodes
        self._seeded: list[set[int]] = [set() for _ in range(nodes)]
        self._dead: set[int] = set()
        # Receiver-settled routing state, all guarded by _lock.
        self._lock = threading.Lock()
        self._inflight: dict[int, Future] = {}
        self._chunk_nodes: dict[int, int] = {}
        self._barriers: dict[tuple[int, int], Future] = {}
        self._next_chunk = itertools.count(1)
        # Counters the bench and the report read.
        self.node_chunks: Counter = Counter()
        self.node_restarts = 0
        #: Replies for chunks already written off (the node was declared
        #: lost and the chunk redispatched before its reply landed).
        #: Discarded, never applied — benign, expected under kill races.
        self.stale_results = 0
        #: Replies for a chunk that was already settled — a protocol
        #: violation; must stay 0 (the node-kill exactness gate).
        self.duplicate_results = 0
        self.degraded_jobs = 0

    # -- sharding ------------------------------------------------------------

    def _register(self, program: Any) -> int:
        pid, evicted = self._table.register(program)
        if evicted is not None:
            self._home_cache.pop(evicted, None)
            for seeded in self._seeded:
                seeded.discard(evicted)
        return pid

    def _home(self, pid: int) -> int:
        """The node whose resident-table slice owns this program.

        Hashed from the program's *content key* (protocol-pinned
        pickle, like ``journal_key``), so the placement is stable
        across processes and runs — the sharding diagram in DESIGN.md.
        """
        node = self._home_cache.get(pid)
        if node is None:
            key = self._table.known[pid][0]
            digest = hashlib.sha1(pickle.dumps(key, protocol=4)).digest()
            node = self._home_cache[pid] = int.from_bytes(digest[:8], "big") % self.nodes
        return node

    # -- communicator lifecycle ----------------------------------------------

    def _ensure_comm(self) -> Communicator:
        if self.comm is not None and os.getpid() != self._owner_pid:
            # Forked copy: the sockets and node processes belong to the
            # parent.  Drop the references, never close them from here.
            self.comm = None
            self._receiver = None
        if self.comm is None:
            self._stop = threading.Event()
            self.comm = create_communicator(
                self.topology,
                nodes=self.nodes,
                workers_per_node=self.workers_per_node,
                connect_timeout=self.connect_timeout,
            )
            self._owner_pid = os.getpid()
            self._generation = [g + 1 for g in self._generation]
            self._seeded = [set() for _ in range(self.nodes)]
            with self._lock:
                self._dead = set()
            self._receiver = threading.Thread(
                target=self._receive_loop, daemon=True, name="dist-recv"
            )
            self._receiver.start()
            self._shard_all()
            mark_open(self)
        return self.comm

    def _shard_message(self, node: int) -> tuple[Any, list[int], Future]:
        generation = self._generation[node]
        seeds = [
            (pid, program)
            for pid, (_, program) in self._table.known.items()
            if self._home(pid) == node
        ]
        barrier: Future = Future()
        with self._lock:
            self._barriers[(node, generation)] = barrier
        message = ("shard", {"generation": generation, "seeds": seeds, "reset": True})
        return message, [pid for pid, _ in seeds], barrier

    def _shard_all(self) -> None:
        """Scatter every node's table slice; barrier on all the acks."""
        assert self.comm is not None
        plans = [self._shard_message(node) for node in range(self.nodes)]
        self.comm.scatter([message for message, _, _ in plans])
        for node, (_, pids, barrier) in enumerate(plans):
            barrier.result(timeout=self.connect_timeout)
            self._seeded[node] = set(pids)
        if OBS.enabled:
            OBS.count("comm_shards_total", self.nodes)

    def _shard_node(self, node: int) -> None:
        assert self.comm is not None
        message, pids, barrier = self._shard_message(node)
        try:
            self.comm.send(node, message)
        except NodeLost as exc:
            with self._lock:
                self._barriers.pop((node, self._generation[node]), None)
            raise _crash()(str(exc)) from exc
        barrier.result(timeout=self.connect_timeout)
        self._seeded[node] = set(pids)
        if OBS.enabled:
            OBS.count("comm_shards_total")

    def _restart_node(self, node: int) -> None:
        """A dead node is a restarted generation: fresh process, bumped
        generation, its table slice re-sharded before any chunk flows."""
        assert self.comm is not None
        self.comm.restart_node(node)
        self.node_restarts += 1
        self._generation[node] += 1
        self._seeded[node] = set()
        with self._lock:
            self._dead.discard(node)
        try:
            self._shard_node(node)
        except BaseException:
            with self._lock:
                self._dead.add(node)
            raise

    def recover(self) -> None:
        """Restart every dead node (the supervisor's recovery hook)."""
        if self.comm is None:
            return
        with self._lock:
            dead = sorted(self._dead)
        for node in dead:
            self._restart_node(node)

    def close(self) -> None:
        if not enter_close(self):
            return
        self._stop.set()
        comm, self.comm = self.comm, None
        if comm is not None and os.getpid() == self._owner_pid:
            comm.close()
        receiver, self._receiver = self._receiver, None
        if receiver is not None and receiver is not threading.current_thread():
            receiver.join(timeout=2.0)
        with self._lock:
            leftovers = list(self._inflight.values()) + list(self._barriers.values())
            self._inflight.clear()
            self._chunk_nodes.clear()
            self._barriers.clear()
        for future in leftovers:
            if not future.done():
                future.set_exception(_crash()("dist backend closed"))

    def __del__(self) -> None:  # pragma: no cover - GC timing
        try:
            if os.getpid() == self._owner_pid:
                self.close()
        except Exception:
            pass

    # -- receiver ------------------------------------------------------------

    def _receive_loop(self) -> None:
        while not self._stop.is_set():
            comm = self.comm
            if comm is None:
                return
            try:
                got = comm.recv(timeout=0.1)
            except NodeLost as exc:
                self._on_node_lost(exc.node)
                continue
            except Exception:
                return  # communicator torn down under us
            if got is None:
                continue
            node, message = got
            try:
                op, body = message
            except (TypeError, ValueError):
                continue
            if op == "result":
                self._settle(node, body)
            elif op == "sharded":
                with self._lock:
                    barrier = self._barriers.pop(
                        (node, int(body.get("generation", -1))), None
                    )
                if barrier is not None and not barrier.done():
                    barrier.set_result(body)
            # hello/pong/bye: nothing to route

    def _settle(self, node: int, body: dict) -> None:
        with self._lock:
            future = self._inflight.pop(body.get("chunk_id"), None)
            self._chunk_nodes.pop(body.get("chunk_id"), None)
        if future is None:
            self.stale_results += 1
            return
        if future.done():  # pragma: no cover - protocol violation
            self.duplicate_results += 1
            return
        if "error" in body:
            message = f"node {node}: {body['error']}"
            if body.get("crash"):
                future.set_exception(_crash()(message))
            else:
                future.set_exception(RuntimeError(message))
        else:
            future.set_result((body["results"], body["stats"], body["seconds"]))

    def _on_node_lost(self, node: int) -> None:
        with self._lock:
            self._dead.add(node)
            victims = [
                (cid, future)
                for cid, future in self._inflight.items()
                if self._chunk_nodes.get(cid) == node
            ]
            for cid, _ in victims:
                self._inflight.pop(cid, None)
                self._chunk_nodes.pop(cid, None)
            barriers = [
                future for key, future in list(self._barriers.items()) if key[0] == node
            ]
            for key in [k for k in self._barriers if k[0] == node]:
                self._barriers.pop(key, None)
        crash = _crash()
        for _, future in victims:
            if not future.done():
                future.set_exception(crash(f"comm node {node} lost mid-chunk"))
        for future in barriers:
            if not future.done():
                future.set_exception(crash(f"comm node {node} lost during shard"))

    # -- chunk dispatch ------------------------------------------------------

    def _send_chunk(
        self,
        node: int,
        entries: Sequence[tuple[int, Any]],
        *,
        fuel: int,
        compiled: bool,
    ) -> tuple[Future, int]:
        """Route one interned chunk to ``node``; ``(future, bytes)``.

        Programs the node's shard was not seeded with ride along in
        ``shipped`` — at most once per chunk, exactly like the process
        pool's payloads.  A send failure converts to ``WorkerCrash``
        so both the supervisor and the local dispatch loop treat it as
        the node crash it is.
        """
        assert self.comm is not None
        shipped: dict[int, Any] = {}
        seeded = self._seeded[node]
        for pid, _ in entries:
            if pid not in seeded and pid not in shipped:
                shipped[pid] = self._table.known[pid][1]
        chunk_id = next(self._next_chunk)
        future: Future = Future()
        with self._lock:
            self._inflight[chunk_id] = future
            self._chunk_nodes[chunk_id] = node
        body = {
            "chunk_id": chunk_id,
            "workload": self.workload,
            "generation": self._generation[node],
            "entries": tuple(entries),
            "shipped": shipped,
            "fuel": fuel,
            "compiled": compiled,
            "ctx": current_context(),
        }
        try:
            nbytes = self.comm.send(node, ("chunk", body))
        except NodeLost as exc:
            with self._lock:
                self._inflight.pop(chunk_id, None)
                self._chunk_nodes.pop(chunk_id, None)
            self._on_node_lost(node)
            raise _crash()(str(exc)) from exc
        self.node_chunks[node] += 1
        return future, nbytes

    def kill_node(self, node: int | None = None) -> int | None:
        """Chaos seam: abruptly kill one live node; returns its id.

        ``ChaosBackend`` maps the ``"node_kill"`` fault kind here.  The
        death is asynchronous — the loss surfaces through the reader as
        the chunk failures and restart a real SIGKILL would cause.
        """
        self._ensure_comm()
        assert self.comm is not None
        with self._lock:
            alive = [n for n in range(self.nodes) if n not in self._dead]
        if not alive:
            return None
        victim = node if node in alive else alive[0]
        return victim if self.comm.kill_node(victim) else None

    def submit_chunk(self, chunk: Sequence[Job], *, fuel: int, compiled: bool) -> Future:
        """One chunk to its home node — the supervision surface.

        The chunk routes to the home node of its first program (a
        supervisor's chunks are arbitrary slices; sharding them
        per-entry would explode them).  If that node is dead the chunk
        falls over to a live node — ``shipped`` carries whatever that
        node's shard lacks — so supervised retries make progress even
        before ``recover()`` restarts the dead one.
        """
        entries = [(self._register(program), input) for program, input in chunk]
        self._ensure_comm()
        target = self._home(entries[0][0]) if entries else 0
        with self._lock:
            dead = set(self._dead)
        if target in dead:
            alive = [n for n in range(self.nodes) if n not in dead]
            if not alive:
                raise _crash()("all comm nodes lost")
            target = alive[target % len(alive)]
        future, _ = self._send_chunk(target, entries, fuel=fuel, compiled=compiled)
        return future

    # -- warm lifecycle ------------------------------------------------------

    def warm(self, *, jobs: Sequence[Job] = (), programs: Sequence[Any] = ()) -> "DistBackend":
        """Register programs and seed every node's shard with its slice."""
        fresh: set[int] = set()
        for program in list(programs) + [program for program, _ in jobs]:
            pid = self._register(program)
            node = self._home(pid)
            if self.comm is not None and pid not in self._seeded[node]:
                fresh.add(node)
        if self.comm is None:
            self._ensure_comm()
        else:
            for node in sorted(fresh):
                self._generation[node] += 1
                self._shard_node(node)
        return self

    def invalidate(self) -> None:
        """Drop every warm table: nodes, program registry, memo, costs."""
        self.close()
        self._table.clear()
        self._home_cache.clear()

    # -- execution -----------------------------------------------------------

    def execute(
        self,
        jobs: Sequence[Job],
        *,
        fuel: int,
        compiled: bool,
        cache: _core.ResidentCache | None = None,
    ) -> list[Any]:
        self.last_cache_stats = dict(_core._ZERO_STATS)
        self.last_dispatch = {}
        if not jobs:
            return []
        unique, slots, _ = _core.intern_jobs(self.workload, jobs)
        pids = [self._register(program) for program, _ in unique]

        unique_results, pending = self._table.recall(pids, unique, fuel, compiled)

        settler = ChunkSettler(self.name)
        aggregate = settler.aggregate
        chunks = payload_bytes = 0
        restarts_before = self.node_restarts
        degraded_before = self.degraded_jobs
        chunk_counts_before = Counter(self.node_chunks)
        bytes_before = (
            (self.comm.bytes_sent, self.comm.bytes_recv) if self.comm is not None else (0, 0)
        )
        try:
            if pending:
                self._ensure_comm()
                with OBS.span(
                    "batch.pool",
                    backend=self.name,
                    jobs=len(jobs),
                    pending=len(pending),
                    nodes=self.nodes,
                ):
                    chunks, payload_bytes = self._dispatch(
                        pending, unique, pids, unique_results, settler, fuel, compiled
                    )
        finally:
            executed = set(pending)
            dup_of_executed = sum(1 for s in slots if s in executed) - len(executed)
            warm_hits = sum(1 for s in slots if s not in executed)
            self.last_cache_stats = {
                "hits": aggregate["hits"] + (dup_of_executed if compiled else 0),
                "misses": aggregate["misses"],
                "size": aggregate["size"],
            }
            self.last_dispatch = dispatch_summary(
                len(jobs),
                len(unique),
                chunks=chunks,
                payload_bytes=payload_bytes,
                warm_hits=warm_hits,
                memo_hits=warm_hits,
                ensemble_jobs=0,
                nodes=self.nodes,
                node_restarts=self.node_restarts - restarts_before,
                degraded_jobs=self.degraded_jobs - degraded_before,
            )
        out = [unique_results[s] for s in slots]
        if any(r is None for r in out):  # pragma: no cover - defensive
            raise RuntimeError("dispatch completed with unfilled result slots")
        self._table.remember(pids, unique, unique_results, fuel, compiled)
        if cache is not None:
            cache.absorb(self.last_cache_stats)
        if OBS.enabled:
            sent_after, recv_after = (
                (self.comm.bytes_sent, self.comm.bytes_recv)
                if self.comm is not None
                else bytes_before
            )
            with OBS.atomic():
                for node, count in (Counter(self.node_chunks) - chunk_counts_before).items():
                    OBS.count("comm_chunks_total", count, node=str(node))
                if sent_after > bytes_before[0]:
                    OBS.count("comm_bytes_sent_total", sent_after - bytes_before[0])
                if recv_after > bytes_before[1]:
                    OBS.count("comm_bytes_recv_total", recv_after - bytes_before[1])
                restart_delta = self.node_restarts - restarts_before
                if restart_delta:
                    OBS.count("comm_node_restarts_total", restart_delta)
            with self._lock:
                alive = self.nodes - len(self._dead)
            OBS.gauge("comm_nodes", alive)
            _core._record_cache_metrics(
                self.name, self.last_cache_stats["hits"], self.last_cache_stats["misses"]
            )
            if payload_bytes:
                OBS.count("batch_payload_bytes", payload_bytes, backend=self.name)
            if warm_hits:
                OBS.count("batch_warm_hits", warm_hits, backend=self.name)
        return out

    def _dispatch(
        self,
        pending: list[int],
        unique: Sequence[Job],
        pids: Sequence[int],
        unique_results: list[Any],
        settler: ChunkSettler,
        fuel: int,
        compiled: bool,
    ) -> tuple[int, int]:
        """Drive the nodes over ``pending``; ``(chunks, payload_bytes)``.

        Per-node straggler queues with adaptive pull spans (each pull
        takes a ``1/(2·workers_per_node)`` share of that node's
        remaining estimated cost), a bounded in-flight window per node
        to pipeline over the wire, and crash-requeue + restart woven
        into the same loop.
        """
        crash = _crash()
        queues: dict[int, deque[int]] = {n: deque() for n in range(self.nodes)}
        estimates = {u: self._table.estimate(pids[u]) for u in pending}
        node_cost = {n: 0.0 for n in range(self.nodes)}
        for u in pending:
            node = self._home(pids[u])
            queues[node].append(u)
            node_cost[node] += estimates[u]
        in_flight: dict[Future, tuple[int, list[int]]] = {}
        node_inflight: Counter = Counter()
        window = max(2, 2 * max(1, self.workers_per_node))
        chunks = payload_bytes = 0
        restarts = 0

        def next_span(node: int) -> list[int] | None:
            q = queues[node]
            if not q:
                return None
            if self.chunksize is not None:
                span = [q.popleft() for _ in range(min(self.chunksize, len(q)))]
                if len(q) == 1:  # never ship a 1-job leftover chunk
                    span.append(q.popleft())
                return span
            share = max(1.0, node_cost[node] / (2 * max(1, self.workers_per_node)))
            span: list[int] = []
            acc = 0.0
            while q and (not span or acc < share):
                u = q.popleft()
                span.append(u)
                acc += estimates[u]
            node_cost[node] -= acc
            return span

        def requeue(node: int, span: list[int]) -> None:
            for u in reversed(span):
                queues[node].appendleft(u)
            node_cost[node] += sum(estimates[u] for u in span)

        def degrade_remainder() -> None:
            """Past the restart budget: finish locally, like the
            supervisor degrading to serial — results stay exact."""
            leftovers = sorted(u for q in queues.values() for u in q)
            for q in queues.values():
                q.clear()
            if not leftovers:
                return
            local = _core.ResidentCache(self.workload) if compiled else None
            results = _core.run_job_loop(
                self.workload, [unique[u] for u in leftovers], fuel, compiled, local
            )
            for u, result in zip(leftovers, results):
                unique_results[u] = result
                self._table.observe_cost(pids[u], self.workload.cost(result))
            self.degraded_jobs += len(leftovers)
            if local is not None:
                settler.absorb_stats(local.stats())

        while True:
            with self._lock:
                dead = set(self._dead)
            dead_with_work = [n for n in sorted(dead) if queues[n]]
            for node in dead_with_work:
                if restarts >= self.max_node_restarts:
                    degrade_remainder()
                    break
                restarts += 1
                try:
                    self._restart_node(node)
                except (crash, TimeoutError, ConnectionError, OSError):
                    continue  # still down; next pass retries or degrades
                dead.discard(node)
            for node in range(self.nodes):
                if node in dead:
                    continue
                while node_inflight[node] < window:
                    span = next_span(node)
                    if span is None:
                        break
                    if self.chaos is not None:
                        kind = self.chaos.next_fault()
                        if kind == "node_kill":
                            self.kill_node(node)
                    entries = [(pids[u], unique[u][1]) for u in span]
                    try:
                        future, nbytes = self._send_chunk(
                            node, entries, fuel=fuel, compiled=compiled
                        )
                    except crash:
                        requeue(node, span)
                        break  # node died at submit; outer loop restarts it
                    chunks += 1
                    payload_bytes += nbytes
                    in_flight[future] = (node, span)
                    node_inflight[node] += 1
            if not in_flight:
                if any(queues.values()):
                    continue  # dead nodes still hold work; loop restarts them
                break
            done, _ = wait(set(in_flight), return_when=FIRST_COMPLETED)
            for future in done:
                node, span = in_flight.pop(future)
                node_inflight[node] -= 1
                try:
                    payload = future.result()
                except crash:
                    requeue(node, span)  # node lost; restart happens at loop top
                    continue
                results = settler.settle(payload)
                for u, result in zip(span, results):
                    unique_results[u] = result
                    self._table.observe_cost(pids[u], self.workload.cost(result))
        return chunks, payload_bytes
