"""The multiprocess backend: real processes, real queues, measured costs.

Every other backend *models* CPU and NIC cost; this one runs the
topology on real OS resources and **measures** them (DESIGN.md §16):

- one worker process per simulated server, forked from the parent so
  topology factories (closures included) carry over;
- each worker drives a :class:`~repro.engine.physical.PhysicalPlan`
  over the operator *instances placed on its server*
  (:func:`~repro.engine.physical.placement`, every backend's
  round-robin) behind :class:`~repro.engine.physical.SpoutSource` /
  :class:`~repro.engine.physical.HostedBolt` shards — the vectorized
  backend's walk, with an edge that ships what is remote;
- routing goes once per (stream, batch) through the stream's
  :class:`~repro.engine.physical.StreamRoutes`, as on the vectorized
  backend: a deterministic router (table, hash) serves every source
  instance and places every tuple where the DES does; every other
  policy keeps one router per (stream, source instance), as the DES
  does, each seeing its instance's tuples in the order the instance
  produced them;
- intra-server edges stay in-process (zero serialized bytes); tuples
  crossing servers are pickled onto the destination worker's bounded
  inbound queue and the serialized length is recorded — locality is a
  *measured* byte win, not a modeled one;
- per-server CPU is ``time.process_time_ns()`` in each worker;
  ``BackendResult.sim_s`` is the busiest worker's CPU seconds and
  ``BackendResult.measured`` carries the per-server breakdown, each
  worker's run timeline and the coordinator's.

**Termination** rides on per-producer FIFO: every worker broadcasts a
``DONE(stream)`` marker after the last tuple it will ever send on that
stream, so a consumer holding all producers' markers has provably
received all data; it reports FINISHED and, once every scripted action
has been replayed, its RESULT — nobody tells it to stop.
**Backpressure** is deadlock-free: a sender blocked on a full peer
queue takes in the DATA of its own inbound queue while retrying; any
other message waits for the loop's next drain. **Scripted
reconfigurations** replay behind a barrier: the coordinator broadcasts
the action, workers pause their sources and exchange ``FENCE`` markers
(flushing all pre-epoch tuples), swap tables / resize / migrate keyed
state to each key's new owner worker, exchange ``MIG_DONE`` markers
and resume. **Failure handling** is structured: a crashed or hung
worker (or an expired ``mp_timeout_s``) tears every process down —
terminate, join, kill — and raises :class:`MultiprocessBackendError`
carrying the partial progress, leaving no orphaned children.
"""

from __future__ import annotations

import os
import pickle
import queue as _queue
import sys
import time
import traceback
from itertools import compress, islice
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.engine.physical import (
    HostedBolt,
    PhysicalEdge,
    PhysicalOperator,
    PhysicalPlan,
    SpoutSource,
    StreamRoutes,
    TupleBatch,
    placement,
)
from repro.engine.topology import Topology
from repro.errors import DeploymentError


class MultiprocessBackendError(DeploymentError):
    """A multiprocess run failed (crash, hang, timeout, worker error).

    Attributes
    ----------
    reason:
        ``"worker-crash"`` / ``"timeout"`` / ``"worker-error"``.
    server:
        The offending worker's server index, when one is known.
    exitcode:
        The crashed worker's exit code, when one is known.
    partial:
        Progress at teardown: ``{"emitted": {server: n}, "finished":
        [servers], "results": [servers]}``.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str,
        server: Optional[int] = None,
        exitcode: Optional[int] = None,
        partial: Optional[dict] = None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.server = server
        self.exitcode = exitcode
        self.partial = partial or {}


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

_POLL_S = 0.05


class _WorkerEdge(PhysicalEdge):
    """A stream's edge in one worker's plan. :meth:`deliver` routes a
    locally produced batch and splits it by destination server: each
    remote part leaves as one pickled DATA message, the local part is
    returned. :meth:`producer_done` broadcasts DONE after all data, and
    is true once every server's producer has declared."""

    def __init__(self, stream, src, dst, routes, worker) -> None:
        super().__init__(
            stream.name, src, dst, dst.input_names.index(stream.name), routes
        )
        self.worker = worker
        #: servers whose producer declared DONE on this stream
        self.declared: set = set()

    def deliver(self, batch: TupleBatch) -> Optional[TupleBatch]:
        worker = self.worker
        routes = self.routes
        values = batch.values
        dst, _, rows = routes.route(values, batch.src_instances)
        if rows is not None:  # grouped by source, or replicated
            values = [values[row] for row in rows.tolist()]
        servers = placement(dst, worker.num_servers)
        # bincount, not unique: no sort, and no ``numpy.ma`` import
        # (17 ms on first use, i.e. in every forked worker)
        per_server = np.bincount(servers, minlength=worker.num_servers)
        n_local = int(per_server[worker.server])
        routes.local_tuples += n_local
        routes.total_tuples += len(dst)
        if n_local < len(dst):
            # pickled small-int lists are 2 B/entry, int64 arrays 8
            wire = np.min_scalar_type(routes.n - 1)
            per_server[worker.server] = 0
            for server in np.flatnonzero(per_server).tolist():
                mask = servers == server
                worker._send_blob(
                    server,
                    (
                        "DATA",
                        self.stream_name,
                        list(compress(values, mask.tolist())),
                        dst[mask].astype(wire),
                    ),
                )
            here = servers == worker.server
            values = list(compress(values, here.tolist()))
            dst = dst[here]
        return TupleBatch(values, dst_instances=dst) if n_local else None

    def declare(self, server: int) -> bool:
        """Record ``server``'s DONE; whether it was the last one."""
        if server in self.declared:
            return False
        self.declared.add(server)
        return len(self.declared) == self.worker.num_servers

    def producer_done(self) -> bool:
        self.worker._broadcast(("DONE", self.stream_name, self.worker.server))
        return self.declare(self.worker.server)


class _Worker:
    """One server's process: runs the plan of its operator shards and
    speaks the DONE / FENCE / MIGRATE protocol."""

    def __init__(
        self,
        server: int,
        num_servers: int,
        topology: Topology,
        options,
        inboxes,
        events,
    ) -> None:
        self.server = server
        self.num_servers = num_servers
        self.topology = topology
        self.options = options
        self.inboxes = inboxes
        self.inbox = inboxes[server]
        self.events = events
        self.peers = [s for s in range(num_servers) if s != server]

        self.paused = False
        self.stopped = False
        self.finished_sent = False
        self.resumed_epochs = 0
        #: spout tuples pulled here, as last sent in a PROGRESS event
        self.emitted = 0
        self.ipc_tx_bytes = 0
        self.ipc_rx_bytes = 0
        self.ipc_tx_msgs = 0
        self.ipc_rx_msgs = 0
        #: epoch -> barrier state
        self.epochs: Dict[int, dict] = {}
        #: messages that arrived inside a blocked send, in order
        self._parked: List[tuple] = []
        #: MIGRATE payloads that arrived before our own resize created
        #: the target instances (a peer can finish its barrier first)
        self._pending_migrates: List[Tuple[str, dict]] = []
        #: run timeline: mark name -> ``perf_counter()`` when first hit
        self.marks: Dict[str, float] = {}

        fault = options.mp_fault
        self._fault = None
        if fault and int(fault.get("server", -1)) == server:
            self._fault = (
                str(fault.get("kind", "crash")),
                int(fault.get("after_tuples", 0)),
            )

    def _mark(self, name: str) -> None:
        if name not in self.marks:
            self.marks[name] = time.perf_counter()

    # -- setup ----------------------------------------------------------

    def setup(self) -> None:
        topo = self.topology
        options = self.options
        servers = self.num_servers
        self.ops: Dict[str, PhysicalOperator] = {}
        for name in topo.topological_order():
            spec = topo.operator(name)
            if spec.is_spout:
                self.ops[name] = SpoutSource(
                    name,
                    spec.factory,
                    spec.parallelism,
                    {
                        instance: self.server
                        for instance in range(spec.parallelism)
                        if placement(instance, servers) == self.server
                    },
                    options.batch_size,
                )
            else:
                self.ops[name] = HostedBolt(
                    name,
                    [s.name for s in topo.inputs_of(name)],
                    spec.factory,
                    spec.parallelism,
                    servers,
                    options.costs.tuple_header_bytes,
                    server=self.server,
                )
        self.plan = PhysicalPlan(
            list(self.ops.values()),
            [
                _WorkerEdge(
                    stream,
                    self.ops[stream.src],
                    self.ops[stream.dst],
                    StreamRoutes(
                        stream, topo.operator(stream.dst).parallelism, servers
                    ),
                    self,
                )
                for stream in topo.streams
            ],
        )

    # -- messaging ------------------------------------------------------

    def _put(self, server: int, message) -> None:
        """Put with backpressure: on a full peer queue, take in our own
        DATA (someone may be blocked on *us*) and retry."""
        box = self.inboxes[server]
        while True:
            try:
                box.put(message, timeout=_POLL_S)
                return
            except _queue.Full:
                self._drain_inbox(block=False, data_only=True)

    def _send_blob(self, server: int, payload: tuple) -> None:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self.ipc_tx_bytes += len(blob)
        self.ipc_tx_msgs += 1
        self._put(server, blob)

    def _broadcast(self, message) -> None:
        for peer in self.peers:
            self._put(peer, message)

    # -- sources --------------------------------------------------------

    def _maybe_fault(self) -> None:
        if self._fault is None:
            return
        kind, after = self._fault
        if self.emitted < after:
            return
        if kind == "crash":
            os._exit(23)
        if kind == "hang":
            while True:  # parked until the coordinator terminates us
                time.sleep(60)
        raise DeploymentError(f"unknown mp_fault kind {kind!r}")

    def _step(self) -> bool:
        """One :meth:`PhysicalPlan.step`: every live local source polled
        once; reports PROGRESS. Whether any produced a batch."""
        progressed = self.plan.step()
        self._mark("first_batch")
        if not progressed:  # every local source is dry
            self._mark("sources_done")
        emitted = self.plan.emitted()
        if emitted != self.emitted:
            self.emitted = emitted
            self.events.put(("PROGRESS", self.server, emitted))
            self._maybe_fault()
        return progressed

    # -- reconfiguration barrier ---------------------------------------

    def _epoch(self, epoch: int) -> dict:
        return self.epochs.setdefault(
            epoch,
            {
                "fences": set(),
                "mig_done": set(),
                "action": None,
                "fenced": False,
                "applied": False,
                "resumed": False,
            },
        )

    def _enter_fence(self, epoch: int) -> None:
        state = self._epoch(epoch)
        if state["fenced"]:
            return
        state["fenced"] = True
        self.paused = True
        self._broadcast(("FENCE", epoch, self.server))

    def _try_apply(self, epoch: int) -> None:
        state = self._epoch(epoch)
        if (
            state["applied"]
            or state["action"] is None
            or not state["fenced"]
            or not state["fences"].issuperset(self.peers)
        ):
            return
        # Quiesced: every peer fenced, so all pre-epoch data arrived
        # (per-producer FIFO) and has been processed.
        state["applied"] = True
        consumer, leaving = self.plan.apply_action(
            self.options.actions[state["action"]]
        )
        # What leaves this server goes as one message per server.
        outgoing: Dict[int, Dict[int, Dict[Any, Any]]] = {}
        for owner, entries in leaving.items():
            server = placement(owner, self.num_servers)
            outgoing.setdefault(server, {})[owner] = entries
        for server, per_instance in sorted(outgoing.items()):
            self._send_blob(server, ("MIGRATE", consumer.name, per_instance))
        self._flush_pending_migrates()
        self._broadcast(("MIG_DONE", epoch, self.server))
        self._try_resume(epoch)

    def _try_resume(self, epoch: int) -> None:
        state = self._epoch(epoch)
        if (
            state["resumed"]
            or not state["applied"]
            or not state["mig_done"].issuperset(self.peers)
        ):
            return
        state["resumed"] = True
        self.resumed_epochs += 1
        self.paused = False
        self.events.put(("RECONFIGURED", epoch, self.server))

    def _install_migrate(self, op_name: str, per_instance: dict) -> None:
        shard = self.ops[op_name]
        if any(owner not in shard.operators for owner in per_instance):
            # A peer applied the resize before us; park the payload
            # until our own apply_action creates the new instances.
            self._pending_migrates.append((op_name, per_instance))
            return
        for owner, entries in per_instance.items():
            shard.operators[owner].install_state(entries)

    def _flush_pending_migrates(self) -> None:
        pending, self._pending_migrates = self._pending_migrates, []
        for op_name, per_instance in pending:
            self._install_migrate(op_name, per_instance)

    # -- inbound handling -----------------------------------------------

    def _handle(self, message) -> None:
        tag = message[0]
        if tag == "MIGRATE":
            _, op_name, per_instance = message
            self._install_migrate(op_name, per_instance)
        elif tag == "DONE":
            _, stream_name, producer = message
            edge = self.plan.edges_by_stream[stream_name]
            if edge.declare(producer):
                self.plan.finish(edge)
        elif tag == "FENCE":
            _, epoch, producer = message
            self._epoch(epoch)["fences"].add(producer)
            self._enter_fence(epoch)
            self._try_apply(epoch)
        elif tag == "RECONFIG":
            _, epoch, action_index = message
            self._epoch(epoch)["action"] = action_index
            self._enter_fence(epoch)
            self._try_apply(epoch)
        elif tag == "MIG_DONE":
            _, epoch, producer = message
            self._epoch(epoch)["mig_done"].add(producer)
            self._try_resume(epoch)
        else:  # pragma: no cover - protocol invariant
            raise DeploymentError(f"unknown message {tag!r}")

    def _drain_inbox(self, block: bool, data_only: bool = False) -> bool:
        """Handle what has arrived, in order. Inside a blocked send
        (``data_only``) a batch may be half pushed: DATA is taken in,
        and every other message waits for the loop's next drain, a
        quiescent point — no DONE, FENCE or action overtakes the rest
        of that batch."""
        handled = False
        while True:
            if self._parked and not data_only:
                message = self._parked.pop(0)
            else:
                try:
                    message = (
                        self.inbox.get(timeout=_POLL_S)
                        if block and not handled
                        else self.inbox.get_nowait()
                    )
                except _queue.Empty:
                    return handled
                if isinstance(message, bytes):
                    self.ipc_rx_bytes += len(message)
                    self.ipc_rx_msgs += 1
                    message = pickle.loads(message)
            handled = True
            if message[0] == "DATA":
                _, stream_name, values, dst = message
                self.plan.feed(
                    self.plan.edges_by_stream[stream_name],
                    TupleBatch(values, dst_instances=dst),
                )
            elif data_only:
                self._parked.append(message)
            else:
                self._handle(message)

    def _check_finished(self) -> None:
        """FINISHED once the plan completed — sources dry, every stream
        done; stopped once every scripted action was replayed here as
        well (the rest fire when all have FINISHED): nothing can
        arrive."""
        if not self.finished_sent:
            if not self.plan.completed:
                return
            self.finished_sent = True
            self._mark("finished")
            self.events.put(("FINISHED", self.server))
        self.stopped = self.resumed_epochs == len(self.options.actions)

    def run(self) -> None:
        cpu_start = time.process_time_ns()
        self._mark("start")
        modules_at_start = len(sys.modules)
        try:
            self.setup()
            self._mark("setup")
            while not self.stopped:
                progressed = False
                if not self.paused:
                    progressed = self._step()
                self._drain_inbox(block=not progressed)
                self._check_finished()
            self._mark("stopped")
            payload = {
                "server": self.server,
                # this server's entry of ``BackendResult.measured``
                "measured": {
                    "cpu_ns": time.process_time_ns() - cpu_start,
                    "ipc_tx_bytes": self.ipc_tx_bytes,
                    "ipc_rx_bytes": self.ipc_rx_bytes,
                    "ipc_tx_msgs": self.ipc_tx_msgs,
                    "ipc_rx_msgs": self.ipc_rx_msgs,
                    "timeline": self.marks,
                },
                "plan": self.plan.report(),
            }
            # An import in here is paid by every worker of every run.
            # ``sys.modules`` keeps import order: walk only what is new
            # (touching all 600 forked names is as many page faults).
            grown = max(0, len(sys.modules) - modules_at_start)
            payload["measured"]["late_imports"] = sorted(
                islice(reversed(sys.modules), grown)
            )
            self._mark("result_put")
            self.events.put(("RESULT", self.server, payload))
        except BaseException:
            self.events.put(
                ("ERROR", self.server, traceback.format_exc())
            )


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------


def _teardown(procs, queues, events) -> None:
    """Terminate → join → kill every worker; leave no orphans."""
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=5)
    for proc in procs:
        if proc.is_alive():  # pragma: no cover - terminate sufficed
            proc.kill()
            proc.join(timeout=5)
    for box in queues:
        box.close()
        box.cancel_join_thread()
    events.close()
    events.cancel_join_thread()


#: Pipe capacity asked for under every queue: a remote DATA message is
#: ≈640 tuples × 290 B, and against the default 64 KiB the feeder's
#: write and the reader's recv each sleep three times per message.
_PIPE_BYTES = 1 << 20


def _widen_pipe(box) -> None:
    """Raise the pipe under a ``multiprocessing.Queue`` where the
    platform can (Linux ``F_SETPIPE_SZ``); the default capacity is
    only slower, so no ``fcntl`` or a refusal is not an error."""
    try:
        import fcntl

        fcntl.fcntl(box._writer.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (ImportError, AttributeError, OSError):
        pass


def run_multiprocess(topology: Topology, options) -> "BackendResult":
    import multiprocessing

    from repro.engine.backends import BackendResult, _default_servers

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError as exc:  # pragma: no cover - non-POSIX platforms
        raise DeploymentError(
            "the multiprocess backend requires the 'fork' start method "
            "(topology factories are closures); unavailable here"
        ) from exc

    num_servers = _default_servers(topology, options)
    inboxes = [
        ctx.Queue(maxsize=max(1, options.mp_queue_maxsize))
        for _ in range(num_servers)
    ]
    events = ctx.Queue()
    for box in (*inboxes, events):
        _widen_pipe(box)
    procs = [
        ctx.Process(  # forked: the worker object itself carries over
            target=_Worker(
                s, num_servers, topology, options, inboxes, events
            ).run,
            daemon=True,
            name=f"repro-mp-worker-{s}",
        )
        for s in range(num_servers)
    ]

    pending = sorted(
        range(len(options.actions)),
        key=lambda i: options.actions[i].at_tuples,
    )
    emitted_by: Dict[int, int] = {}
    finished: set = set()
    reconfigured: set = set()
    results: Dict[int, dict] = {}
    epoch = 0
    in_flight: Optional[int] = None

    wall_start = time.perf_counter()
    deadline = time.monotonic() + options.mp_timeout_s
    marks: Dict[str, float] = {}

    def mark(name: str) -> None:  # the coordinator's run timeline
        marks[name] = time.perf_counter() - wall_start

    def partial() -> dict:
        return {
            "emitted": dict(emitted_by),
            "finished": sorted(finished),
            "results": sorted(results),
        }

    def coordinator_put(server: int, message) -> None:
        while True:
            try:
                inboxes[server].put(message, timeout=_POLL_S)
                return
            except _queue.Full:
                if not procs[server].is_alive():
                    raise MultiprocessBackendError(
                        f"worker {server} died with a full inbound "
                        f"queue (exitcode {procs[server].exitcode})",
                        reason="worker-crash",
                        server=server,
                        exitcode=procs[server].exitcode,
                        partial=partial(),
                    )
                if time.monotonic() > deadline:
                    raise MultiprocessBackendError(
                        f"timed out after {options.mp_timeout_s:g}s "
                        f"blocked on worker {server}'s inbound queue",
                        reason="timeout",
                        server=server,
                        partial=partial(),
                    )

    def maybe_reconfigure() -> None:
        nonlocal epoch, in_flight
        if in_flight is not None or not pending:
            return
        next_action = options.actions[pending[0]]
        total = sum(emitted_by.values())
        if total >= next_action.at_tuples or len(finished) == num_servers:
            index = pending.pop(0)
            epoch += 1
            in_flight = epoch
            reconfigured.clear()
            for server in range(num_servers):
                coordinator_put(server, ("RECONFIG", epoch, index))

    try:
        for proc in procs:
            proc.start()
        mark("forked")
        while len(results) < num_servers:
            if time.monotonic() > deadline:
                raise MultiprocessBackendError(
                    f"multiprocess run exceeded mp_timeout_s="
                    f"{options.mp_timeout_s:g}s "
                    f"({len(results)}/{num_servers} workers reported)",
                    reason="timeout",
                    partial=partial(),
                )
            for server, proc in enumerate(procs):
                # Exit code 0 with a pending RESULT is a normal finish
                # (the queue feeder can outlive the process); anything
                # else before the result lands is a crash.
                if (
                    server not in results
                    and not proc.is_alive()
                    and proc.exitcode != 0
                ):
                    raise MultiprocessBackendError(
                        f"worker {server} exited with code "
                        f"{proc.exitcode} before reporting its result",
                        reason="worker-crash",
                        server=server,
                        exitcode=proc.exitcode,
                        partial=partial(),
                    )
            try:
                event = events.get(timeout=_POLL_S)
            except _queue.Empty:
                continue
            tag = event[0]
            if tag == "PROGRESS":
                emitted_by[event[1]] = event[2]
                maybe_reconfigure()
            elif tag == "FINISHED":
                finished.add(event[1])
                if len(finished) == num_servers:
                    mark("all_finished")
                maybe_reconfigure()
            elif tag == "RECONFIGURED":
                if event[1] == in_flight:
                    reconfigured.add(event[2])
                    if len(reconfigured) == num_servers:
                        in_flight = None
                        maybe_reconfigure()
            elif tag == "RESULT":
                results[event[1]] = event[2]
            elif tag == "ERROR":
                raise MultiprocessBackendError(
                    f"worker {event[1]} failed:\n{event[2]}",
                    reason="worker-error",
                    server=event[1],
                    partial=partial(),
                )
        mark("results_in")
        # the summary is the coordinator's only serial work: do it
        # while the workers exit
        result = _assemble(topology, results, wall_start, marks)
        for proc in procs:
            proc.join(timeout=10)
    finally:
        _teardown(procs, inboxes, events)
    mark("joined")  # ``marks`` is ``result.measured["timeline"]``
    return result


def _assemble(
    topology, results: Dict[int, dict], wall_start: float, marks: dict
) -> "BackendResult":
    from repro.engine.backends import BackendResult, summarize_plans

    workers = [results[s] for s in sorted(results)]
    per_server = {worker["server"]: worker["measured"] for worker in workers}
    for measured in per_server.values():  # onto the coordinator's clock
        measured["timeline"] = {
            name: at - wall_start
            for name, at in measured["timeline"].items()
        }
    cpu_ns = [measured["cpu_ns"] for measured in per_server.values()]
    summary = summarize_plans(
        topology, [worker["plan"] for worker in workers], marks["results_in"]
    )
    marks["assembled"] = time.perf_counter() - wall_start
    return BackendResult(
        backend="multiprocess",
        sim_s=max(cpu_ns, default=0) / 1e9,
        measured={
            "per_server": per_server,
            "cpu_ns_total": sum(cpu_ns),
            "ipc_bytes_total": sum(
                m["ipc_tx_bytes"] for m in per_server.values()
            ),
            "ipc_msgs_total": sum(
                m["ipc_tx_msgs"] for m in per_server.values()
            ),
            "timeline": marks,
        },
        **summary,
    )
