"""The multiprocess backend: real processes, real queues, measured costs.

Every other backend *models* CPU and NIC cost; this one runs the
topology on real OS resources and **measures** them (DESIGN.md §16):

- one worker process per simulated server, forked from the parent so
  topology factories (closures included) carry over;
- each worker hosts the operator *instances placed on its server*
  (:func:`~repro.engine.physical.placement`, every backend's
  round-robin) behind :class:`~repro.engine.physical.SpoutSource` /
  :class:`~repro.engine.physical.HostedBolt` shards;
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
queue drains its own inbound queue while retrying. **Scripted
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
    SpoutSource,
    StreamRoutes,
    TupleBatch,
    merge_op_stats,
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


class _Worker:
    """One server's process: hosts its operator shards, routes locally
    produced tuples, and speaks the DONE / FENCE / MIGRATE protocol."""

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
        #: spout tuples pulled here so far / last total sent as PROGRESS
        self.emitted = 0
        self.emitted_reported = 0
        self.ipc_tx_bytes = 0
        self.ipc_rx_bytes = 0
        self.ipc_tx_msgs = 0
        self.ipc_rx_msgs = 0
        #: stream -> producers (servers) that declared DONE
        self.done_from: Dict[str, set] = {}
        #: epoch -> barrier state
        self.epochs: Dict[int, dict] = {}
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
        self.widths = {
            op.name: op.parallelism for op in topo.operators.values()
        }
        self.sources: Dict[str, SpoutSource] = {}
        self.bolts: Dict[str, HostedBolt] = {}
        self.streams: Dict[str, StreamRoutes] = {}
        for name in topo.topological_order():
            spec = topo.operator(name)
            if spec.is_spout:
                self.sources[name] = SpoutSource(
                    name,
                    spec.factory,
                    spec.parallelism,
                    {
                        instance: self.server
                        for instance in range(spec.parallelism)
                        if placement(instance, self.num_servers)
                        == self.server
                    },
                    options.batch_size,
                )
            else:
                self.bolts[name] = HostedBolt(
                    name,
                    [s.name for s in topo.inputs_of(name)],
                    spec.factory,
                    spec.parallelism,
                    self.num_servers,
                    options.costs.tuple_header_bytes,
                    server=self.server,
                )
        for stream in topo.streams:
            self.streams[stream.name] = StreamRoutes(
                stream, self.widths[stream.dst], self.num_servers
            )
            self.done_from[stream.name] = set()

    # -- messaging ------------------------------------------------------

    def _put(self, server: int, message) -> None:
        """Put with backpressure: on a full peer queue, drain our own
        inbound queue (someone may be blocked on *us*) and retry."""
        box = self.inboxes[server]
        while True:
            try:
                box.put(message, timeout=_POLL_S)
                return
            except _queue.Full:
                self._drain_inbox(block=False)

    def _send_blob(self, server: int, payload: tuple) -> None:
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self.ipc_tx_bytes += len(blob)
        self.ipc_tx_msgs += 1
        self._put(server, blob)

    def _broadcast(self, message) -> None:
        for peer in self.peers:
            self._put(peer, message)

    # -- routing --------------------------------------------------------

    def _route_batch(self, op_name: str, batch: TupleBatch) -> None:
        """Send one locally produced batch across all of ``op_name``'s
        output streams: one ``route`` call per stream, then the batch is
        split by destination server — remote parts leave as one pickled
        message per (server, stream), the local part stays in-process."""
        for stream in self.topology.outputs_of(op_name):
            routes = self.streams[stream.name]
            values = batch.values
            dst, _, rows = routes.route(values, batch.src_instances)
            if rows is not None:  # grouped by source, or replicated
                values = [values[row] for row in rows.tolist()]
            servers = placement(dst, self.num_servers)
            # bincount, not unique: no sort, and no ``numpy.ma`` import
            # (17 ms on first use, i.e. in every forked worker)
            per_server = np.bincount(servers, minlength=self.num_servers)
            n_local = int(per_server[self.server])
            routes.local_tuples += n_local
            routes.total_tuples += len(dst)
            if n_local < len(dst):
                # pickled small-int lists are 2 B/entry, int64 arrays 8
                wire = np.min_scalar_type(routes.n - 1)
                per_server[self.server] = 0
                for server in np.flatnonzero(per_server).tolist():
                    mask = servers == server
                    self._send_blob(
                        server,
                        (
                            "DATA",
                            stream.name,
                            list(compress(values, mask.tolist())),
                            dst[mask].astype(wire),
                        ),
                    )
                here = servers == self.server
                values = list(compress(values, here.tolist()))
                dst = dst[here]
            if n_local:
                self._deliver(
                    stream.name, TupleBatch(values, dst_instances=dst)
                )

    def _deliver(self, stream_name: str, batch: TupleBatch) -> None:
        dst_op = self.streams[stream_name].stream.dst
        shard = self.bolts[dst_op]
        shard.add_input(batch, shard.input_names.index(stream_name))
        while shard.has_next():
            self._route_batch(dst_op, shard.get_next())

    # -- DONE protocol --------------------------------------------------

    def _mark_stream_done(self, stream_name: str, producer: int) -> None:
        done = self.done_from[stream_name]
        if producer in done:
            return
        done.add(producer)
        if len(done) == self.num_servers:
            self._stream_fully_done(stream_name)

    def _declare_local_done(self, op_name: str) -> None:
        """This worker will produce no more tuples on ``op_name``'s
        output streams: broadcast the DONE markers (after all data)."""
        for stream in self.topology.outputs_of(op_name):
            self._broadcast(("DONE", stream.name, self.server))
            self._mark_stream_done(stream.name, self.server)

    def _stream_fully_done(self, stream_name: str) -> None:
        dst_op = self.streams[stream_name].stream.dst
        shard = self.bolts[dst_op]
        shard.input_done(shard.input_names.index(stream_name))
        while shard.has_next():
            self._route_batch(dst_op, shard.get_next())
        if shard.completed:
            self._declare_local_done(dst_op)

    # -- source polling -------------------------------------------------

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

    def _poll_sources_once(self) -> bool:
        progressed = False
        for name, source in self.sources.items():
            if source.exhausted:
                continue
            batch = source.poll()
            self._mark("first_batch")
            if batch is not None:
                progressed = True
                self.emitted += len(batch)
                self._route_batch(name, batch)
                self._maybe_fault()
            else:
                self._declare_local_done(name)
        if not progressed:  # every local source is dry
            self._mark("sources_done")
        if self.emitted != self.emitted_reported:
            self.emitted_reported = self.emitted
            self.events.put(("PROGRESS", self.server, self.emitted))
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
        self._apply_action(epoch, self.options.actions[state["action"]])
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

    def _apply_action(self, epoch: int, action) -> None:
        routes = action.target_in(self.streams)
        dst_op = routes.stream.dst
        shard = self.bolts[dst_op]
        targets = [routes.stream]
        new_width = action.parallelism
        if new_width is not None:
            self.widths[dst_op] = new_width
            # The new local instances' own output routers are built on
            # first use, like every other.
            shard.resize(new_width)
            targets = self.topology.inputs_of(dst_op)
        for stream in targets:
            self.streams[stream.name].reconfigure(action)
        # Migrate keyed state to each key's new owner; what leaves
        # this server goes as one message per destination server.
        outgoing: Dict[int, Dict[int, Dict[Any, Any]]] = {}
        for owner, entries in shard.migrate(routes.router.owner_of).items():
            outgoing.setdefault(placement(owner, self.num_servers), {})[
                owner
            ] = entries
        for server, per_instance in sorted(outgoing.items()):
            self._send_blob(server, ("MIGRATE", dst_op, per_instance))

    def _install_migrate(self, op_name: str, per_instance: dict) -> None:
        shard = self.bolts[op_name]
        if any(owner not in shard.operators for owner in per_instance):
            # A peer applied the resize before us; park the payload
            # until our own _apply_action creates the new instances.
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
        if isinstance(message, bytes):
            self.ipc_rx_bytes += len(message)
            self.ipc_rx_msgs += 1
            payload = pickle.loads(message)
            tag = payload[0]
            if tag == "DATA":
                _, stream_name, values, dst = payload
                self._deliver(
                    stream_name, TupleBatch(values, dst_instances=dst)
                )
            elif tag == "MIGRATE":
                _, op_name, per_instance = payload
                self._install_migrate(op_name, per_instance)
            else:  # pragma: no cover - protocol invariant
                raise DeploymentError(f"unknown blob tag {tag!r}")
            return
        tag = message[0]
        if tag == "DONE":
            _, stream_name, producer = message
            self._mark_stream_done(stream_name, producer)
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
            raise DeploymentError(f"unknown control message {tag!r}")

    def _drain_inbox(self, block: bool) -> bool:
        handled = False
        while True:
            try:
                message = (
                    self.inbox.get(timeout=_POLL_S)
                    if block and not handled
                    else self.inbox.get_nowait()
                )
            except _queue.Empty:
                return handled
            handled = True
            self._handle(message)

    def _check_finished(self) -> None:
        """FINISHED once the sources are dry and every stream is done;
        stopped once every scripted action was replayed here as well
        (the rest fire when all have FINISHED): nothing can arrive."""
        if not self.finished_sent:
            if any(not s.exhausted for s in self.sources.values()):
                return
            if any(
                len(done) < self.num_servers
                for done in self.done_from.values()
            ):
                return
            self.finished_sent = True
            self._mark("finished")
            self.events.put(("FINISHED", self.server))
        self.stopped = self.resumed_epochs == len(self.options.actions)

    # -- result ---------------------------------------------------------

    def result_payload(self, cpu_ns: int) -> dict:
        op_stats = {
            name: shard.stats.as_dict()
            for name, shard in {**self.sources, **self.bolts}.items()
        }
        return {
            "server": self.server,
            # this server's entry of ``BackendResult.measured``
            "measured": {
                "cpu_ns": cpu_ns,
                "ipc_tx_bytes": self.ipc_tx_bytes,
                "ipc_rx_bytes": self.ipc_rx_bytes,
                "ipc_tx_msgs": self.ipc_tx_msgs,
                "ipc_rx_msgs": self.ipc_rx_msgs,
                "timeline": self.marks,
            },
            "emitted": {
                name: source.stats.tuples_out
                for name, source in self.sources.items()
            },
            "processed": {
                name: shard.stats.tuples_in
                for name, shard in self.bolts.items()
            },
            "received": {
                name: dict(shard.received)
                for name, shard in self.bolts.items()
            },
            "state": {
                name: shard.state_snapshot()
                for name, shard in self.bolts.items()
            },
            "stream_counts": {
                name: [routes.local_tuples, routes.total_tuples]
                for name, routes in self.streams.items()
            },
            "route_counts": {
                name: routes.route_counts()
                for name, routes in self.streams.items()
                if routes.router.counts_table_hits
            },
            "widths": dict(self.widths),
            "op_stats": op_stats,
        }

    def run(self) -> None:
        cpu_start = time.process_time_ns()
        self._mark("start")
        modules_at_start = len(sys.modules)
        try:
            self.setup()
            self._mark("setup")
            # Streams whose producer has no local instances and no
            # pending inputs will never produce here; the DONE protocol
            # discovers that through _check_finished's cascade, but
            # sources with zero local instances must still declare.
            self._poll_sources_once()
            while not self.stopped:
                progressed = False
                if not self.paused:
                    progressed = self._poll_sources_once()
                self._drain_inbox(block=not progressed)
                self._check_finished()
            self._mark("stopped")
            cpu_ns = time.process_time_ns() - cpu_start
            payload = self.result_payload(cpu_ns)
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
    from repro.engine.backends import BackendResult, summarize_counts

    workers = [results[s] for s in sorted(results)]

    # every worker applied every action: one final width per operator
    widths = workers[0]["widths"]

    stream_counts: Dict[str, Tuple[int, int]] = {}
    route_counts: Dict[str, Dict[str, int]] = {}
    for stream in topology.streams:
        if stream.name in workers[0]["route_counts"]:
            route_counts[stream.name] = {
                counter: sum(
                    worker["route_counts"][stream.name][counter]
                    for worker in workers
                )
                for counter in ("table_hits", "hash_fallbacks")
            }
        stream_counts[stream.name] = tuple(
            sum(worker["stream_counts"][stream.name][i] for worker in workers)
            for i in (0, 1)
        )

    bolt_counts = {}
    for op in topology.bolts:
        # a scale-in retires instances: report the final width, as the
        # DES and vectorized do
        counts = [0] * widths[op.name]
        for worker in workers:
            for instance, count in worker["received"][op.name].items():
                if instance < len(counts):
                    counts[instance] += count
        bolt_counts[op.name] = (
            counts,
            [
                item
                for worker in workers
                for item in worker["state"][op.name].items()
            ],
        )

    op_stats = merge_op_stats(worker["op_stats"] for worker in workers)
    per_server = {worker["server"]: worker["measured"] for worker in workers}
    for measured in per_server.values():  # onto the coordinator's clock
        measured["timeline"] = {
            name: at - wall_start
            for name, at in measured["timeline"].items()
        }
    cpu_ns = [measured["cpu_ns"] for measured in per_server.values()]
    summary = summarize_counts(
        marks["results_in"],
        {
            op.name: sum(
                worker["processed"].get(op.name, 0) for worker in workers
            )
            for op in topology.bolts
        },
        stream_counts,
        bolt_counts,
    )
    marks["assembled"] = time.perf_counter() - wall_start
    return BackendResult(
        backend="multiprocess",
        sim_s=max(cpu_ns, default=0) / 1e9,
        tuples_emitted=sum(
            sum(worker["emitted"].values()) for worker in workers
        ),
        route_counts=route_counts,
        op_stats={
            op_name: stats.as_dict()
            for op_name, stats in op_stats.items()
        },
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
