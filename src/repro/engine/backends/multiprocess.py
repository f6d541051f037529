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
  inbound queue (:func:`wire_encode`: without the pickle memo when the
  message is plain data) and the serialized length is recorded —
  locality is a *measured* byte win, not a modeled one;
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
queue takes in its own inbound queue while retrying, parking what
arrives for the loop's next drain. **Scripted reconfigurations** run
in-band, no source paused: at RECONFIG (or a peer's PROPAGATE) a worker
swaps its routers and sends PROPAGATE behind its old-config data; with
every server's PROPAGATE in it migrates keyed state to each key's new
owner and sends MIG_DONE; with every MIG_DONE in it releases the tuples
held for keys whose state had not landed. **Failure handling** is
structured: a crashed or hung worker (or an expired ``mp_timeout_s``)
tears every process down — terminate, join, kill — and raises
:class:`MultiprocessBackendError` carrying the partial progress,
leaving no orphaned children.
"""

from __future__ import annotations

import io
import os
import pickle
import queue as _queue
import sys
import time
import traceback
from collections import deque
from itertools import compress, islice
from typing import Any, Dict, Optional, Tuple

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
# Wire encoding
# ----------------------------------------------------------------------


class _NotPlain(Exception):
    """The message holds an object that is not plain data."""


class _PlainPickler(pickle.Pickler):
    """Pickles plain data: the C pickler writes ``str``, ``bytes``,
    ``int``, ``float``, ``bool``, ``None``, ``tuple``, ``list``,
    ``dict`` and ``set`` (exact types) itself and asks
    :meth:`reducer_override` about anything else, so that call is the
    first object that is not plain."""

    def reducer_override(self, obj):
        raise _NotPlain


def wire_encode(message) -> Tuple[bytes, bool]:
    """``message`` pickled for a peer, and whether it took the memo.

    A plain-data message is pickled in fast mode, without the memo:
    the memo INCREFs every object it writes, and a worker's input sits
    on pages it shares copy-on-write with the parent, so memoising a
    forked field copies its page (DESIGN.md §16.5). Anything else —
    an object that is not plain data, or a cycle, which fast mode
    refuses — is pickled as ``pickle.dumps`` does, memo included:
    objects the tuples share, like one ``Padding`` marker, are written
    once. ``pickle.loads`` reads both."""
    out = io.BytesIO()
    pickler = _PlainPickler(out, pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    try:
        pickler.dump(message)
        return out.getvalue(), False
    except (_NotPlain, ValueError, RecursionError):
        return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL), True


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
            # the column as raw bytes of the narrowest unsigned dtype
            # (1 B/entry at uint8): an ndarray is not plain data, and
            # would send the whole message down the memo path
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
                        dst[mask].astype(wire).tobytes(),
                        wire.char,
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
    speaks the DONE / PROPAGATE / MIGRATE protocol."""

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

        self.stopped = False
        self.finished_sent = False
        #: the last reconfiguration epoch opened here, and while it is
        #: open its state (:meth:`_open`), else None
        self.opened = 0
        self._epoch: Optional[dict] = None
        #: spout tuples pulled here, as last sent in a PROGRESS event
        self.emitted = 0
        self.ipc_tx_bytes = 0
        self.ipc_rx_bytes = 0
        self.ipc_tx_msgs = 0
        self.ipc_rx_msgs = 0
        #: sent messages that were not plain data (:func:`wire_encode`)
        self.ipc_memo_msgs = 0
        #: messages that arrived inside a blocked send, in order
        self._parked: deque = deque()
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
        """Put with backpressure: on a full peer queue, take in what has
        arrived here (someone may be blocked on *us*) and retry."""
        box = self.inboxes[server]
        while True:
            try:
                box.put(message, timeout=_POLL_S)
                return
            except _queue.Full:
                self._take_in()

    def _take_in(self) -> None:
        """Inside a blocked send, park what has arrived, in order, for
        the loop's next drain: a quiescent point. Handled here, a
        message could overtake the rest of a half-pushed batch, and
        what it sends could overtake this send — new-config DATA ahead
        of the PROPAGATE it is retrying."""
        while True:
            try:
                self._parked.append(self.inbox.get_nowait())
            except _queue.Empty:
                return

    def _send_blob(self, server: int, payload: tuple) -> None:
        blob, memo = wire_encode(payload)
        self.ipc_tx_bytes += len(blob)
        self.ipc_tx_msgs += 1
        self.ipc_memo_msgs += memo
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

    # -- reconfiguration ------------------------------------------------

    def _open(self, epoch: int, index: int) -> None:
        """Swap this server's routers for action ``index`` at a
        quiescent point, hold what the new config sends ahead of its
        state, and end the old config's data on every lane with
        PROPAGATE. The coordinator's RECONFIG may come after the peers'
        markers have opened, or even closed, the epoch here."""
        if epoch <= self.opened:
            return
        self._mark("reconfig_open")
        self.opened = epoch
        consumer, owner_of, owner_before = self.plan.reconfigure(
            self.options.actions[index]
        )
        consumer.hold(owner_before)
        self._epoch = {
            "consumer": consumer,
            "owner_of": owner_of,
            "PROPAGATE": 0,
            "MIG_DONE": 0,
        }
        self._broadcast(("PROPAGATE", epoch, index, self.server))
        self._arrived("PROPAGATE")

    def _arrived(self, marker: str) -> None:
        """Count one server's PROPAGATE or MIG_DONE, ours included."""
        state = self._epoch
        state[marker] += 1
        if state[marker] < self.num_servers:
            return
        consumer = state["consumer"]
        if marker == "PROPAGATE":
            # Every server's old-config data is in, and processed: ship
            # what leaves this server, one message per server.
            leaving = consumer.migrate(state["owner_of"])
            outgoing: Dict[int, Dict[int, Dict[Any, Any]]] = {}
            for owner, entries in leaving.items():
                server = placement(owner, self.num_servers)
                outgoing.setdefault(server, {})[owner] = entries
            for server, blob in sorted(outgoing.items()):
                self._send_blob(server, ("MIGRATE", consumer.name, blob))
            self._broadcast(("MIG_DONE", self.opened, self.server))
            self._arrived("MIG_DONE")
        else:  # every server's leaving state is in: run what waited
            self._epoch = None
            self.plan.release(consumer)
            self._mark("reconfig_closed")
            self.events.put(("RECONFIGURED", self.opened, self.server))

    # -- inbound handling -----------------------------------------------

    def _handle(self, message) -> None:
        tag = message[0]
        if tag == "MIGRATE":
            _, op_name, per_instance = message
            for owner, entries in per_instance.items():
                self.ops[op_name].operators[owner].install_state(entries)
        elif tag == "DONE":
            _, stream_name, producer = message
            edge = self.plan.edges_by_stream[stream_name]
            if edge.declare(producer):
                self.plan.finish(edge)
        elif tag == "RECONFIG":
            self._open(*message[1:])
        elif tag == "PROPAGATE":
            self._open(*message[1:3])
            self._arrived(tag)
        elif tag == "MIG_DONE":
            self._arrived(tag)
        else:  # pragma: no cover - protocol invariant
            raise DeploymentError(f"unknown message {tag!r}")

    def _drain_inbox(self, block: bool) -> bool:
        """Handle what has arrived, parked messages first, in order."""
        handled = False
        while True:
            if self._parked:
                message = self._parked.popleft()
            else:
                try:
                    message = (
                        self.inbox.get(timeout=_POLL_S)
                        if block and not handled
                        else self.inbox.get_nowait()
                    )
                except _queue.Empty:
                    return handled
            handled = True
            if isinstance(message, bytes):
                self.ipc_rx_bytes += len(message)
                self.ipc_rx_msgs += 1
                message = pickle.loads(message)
            if message[0] == "DATA":
                _, stream_name, values, dst, wire = message
                self.plan.feed(
                    self.plan.edges_by_stream[stream_name],
                    TupleBatch(
                        values, dst_instances=np.frombuffer(dst, wire)
                    ),
                )
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
        self.stopped = (
            self._epoch is None and self.opened == len(self.options.actions)
        )

    def run(self) -> None:
        cpu_start = time.process_time_ns()
        self._mark("start")
        modules_at_start = len(sys.modules)
        try:
            self.setup()
            self._mark("setup")
            while not self.stopped:
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
                    "ipc_memo_msgs": self.ipc_memo_msgs,
                    "held_tuples": sum(
                        op.held_tuples
                        for op in self.ops.values()
                        if isinstance(op, HostedBolt)
                    ),
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
