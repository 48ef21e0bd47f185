"""Which program functions the traced run wraps, and the per-layer
metrics computed from their spans and from the program's own counters.

Layer boundaries follow the module structure of ``src/repro``:

* ``service.client``   -- ``ServiceClient`` ops the lanes call.
* ``service.client.RpcChannel`` -- ``RpcChannel.call``, every RPC made
  by a client *or* a server (server-side calls have no client parent).
* ``service.wire``     -- ``encode_frame`` and ``_decode_body``, the two
  functions every frame passes through (``read_frame`` and
  ``FrameDecoder`` decode through ``_decode_body``; ``read_frame`` and
  ``write_frame`` themselves are not wrapped, because their spans
  would be mostly time spent waiting on the socket).
* ``service.server``   -- ``NodeServer.dispatch`` and
  ``HAgentServer.dispatch``, and every ``op_*``/``nodeop_*`` handler
  of the node's endpoints, so a dispatch span's children are exactly
  its handler.
* ``storage``          -- ``DurableStore.log``/``snapshot`` and
  ``WriteAheadLog.append``/``sync``.
* ``core``             -- ``HashFunctionCopy`` and the ``HashTree``
  methods the live service and the simulator call.

Server spans are roots: no request id crosses the wire yet, so they
are joined to client spans by time only (the busy shares), never by
parentage.
"""

from __future__ import annotations

import json
import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from spans import Span, SpanRecorder, self_times

from repro.core.hash_tree import HashTree
from repro.core.lhagent import HashFunctionCopy
from repro.platform.jsonable import to_jsonable
from repro.service import server as server_module
from repro.service import wire
from repro.service.client import RpcChannel, ServiceClient
from repro.storage import wal as wal_module
from repro.storage.store import DurableStore

__all__ = ["PER_LAYER", "WindowCounts", "install", "per_layer_metrics", "quantile"]

#: ``name -> (unit, better)`` of every per-layer metric, in report order.
PER_LAYER: Dict[str, tuple] = {
    "client.self_us_per_op": ("us", "lower"),
    "client.rpcs_per_op": ("count/op", "lower"),
    "client.retries_per_kop": ("count/kop", "lower"),
    "client.not_responsible_per_kop": ("count/kop", "lower"),
    "client.refreshes_per_kop": ("count/kop", "lower"),
    "client.hedges": ("count", "lower"),
    "client.hedge_win_ratio": ("ratio", "higher"),
    "channel.call_p50_us": ("us", "lower"),
    "channel.call_p99_us": ("us", "lower"),
    "channel.wait_us_per_call": ("us", "lower"),
    "wire.frames_per_op": ("count/op", "lower"),
    "wire.bytes_per_op": ("B/op", "lower"),
    "wire.encode_us_per_frame": ("us", "lower"),
    "wire.decode_us_per_frame": ("us", "lower"),
    "wire.busy_share": ("ratio", "lower"),
    "server.dispatches_per_op": ("count/op", "lower"),
    "server.self_us_per_dispatch": ("us", "lower"),
    "server.dispatch_p99_us": ("us", "lower"),
    "server.handler_us.locate": ("us", "lower"),
    "server.handler_us.whois": ("us", "lower"),
    "server.handler_us.update": ("us", "lower"),
    "rehash.splits_per_s": ("1/s", "higher"),
    "rehash.merges": ("count", "lower"),
    "rehash.reports_per_s": ("1/s", "lower"),
    "rehash.step_us_per_split": ("us", "lower"),
    "lhagent.whois_us": ("us", "lower"),
    "lhagent.refreshes": ("count", "lower"),
    "lhagent.delta_share": ("ratio", "higher"),
    "storage.appends_per_op": ("count/op", "lower"),
    "storage.append_us": ("us", "lower"),
    "storage.syncs_per_s": ("1/s", "lower"),
    "storage.sync_us": ("us", "lower"),
    "storage.snapshots": ("count", "lower"),
    "storage.bytes_per_op": ("B/op", "lower"),
    "core.resolves_per_op": ("count/op", "lower"),
    "core.resolve_us": ("us", "lower"),
    "core.busy_share": ("ratio", "lower"),
    "sim.events": ("count", "lower"),
    "sim.messages_per_locate": ("count", "lower"),
    "sim.events_per_s": ("1/s", "higher"),
    "sim.splits": ("count", "lower"),
    "sim.final_iagents": ("count", "lower"),
    "loop.lag_p99_ms": ("ms", "lower"),
    "proc.cpu_util": ("ratio", "lower"),
    "trace.throughput_ops_s": ("1/s", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
}

CLIENT_OPS = ("locate", "update", "register")

#: HashTree methods on the live and simulated hot paths.
TREE_METHODS = (
    "lookup",
    "lookup_id",
    "has_owner",
    "hyper_label",
    "covers",
    "split_candidates",
    "affected_owners",
    "apply_split",
    "candidate_at",
    "replay_split",
    "apply_merge",
)

#: Node-side handlers that make up one split's data movement.
REHASH_STEPS = ("handler.extract", "handler.adopt", "handler.set_coverage", "handler.host_iagent")


def _rpc_op(args: tuple, kwargs: dict, result) -> Optional[str]:
    return args[3] if len(args) > 3 else kwargs.get("op")


def _request_op(args: tuple, kwargs: dict, result) -> Optional[str]:
    request = args[2] if len(args) > 2 else kwargs.get("request")
    return getattr(request, "op", None)


def _encoded_bytes(args: tuple, kwargs: dict, result) -> int:
    return len(result) if result is not None else 0


def _decoded_bytes(args: tuple, kwargs: dict, result) -> int:
    return len(args[0])


def _wal_record_bytes(args: tuple, kwargs: dict, result) -> int:
    # The same encoding WriteAheadLog.append writes, plus its header.
    payload = json.dumps(to_jsonable(args[1]), separators=(",", ":"), ensure_ascii=False)
    return len(payload.encode("utf-8")) + wal_module._RECORD.size


def _handlers(cls, prefix: str) -> List[str]:
    return sorted(name for name in vars(cls) if name.startswith(prefix))


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    for op in CLIENT_OPS:
        recorder.wrap(ServiceClient, op, f"client.{op}")
    recorder.wrap(RpcChannel, "call", "channel.call", note=_rpc_op)
    recorder.wrap(wire, "encode_frame", "wire.encode", note=_encoded_bytes)
    recorder.wrap(wire, "_decode_body", "wire.decode", note=_decoded_bytes)
    recorder.wrap(server_module.NodeServer, "dispatch", "server.dispatch", note=_request_op)
    recorder.wrap(server_module.HAgentServer, "dispatch", "hagent.dispatch", note=_request_op)
    for cls in (
        server_module.IAgentEndpoint,
        server_module.LHAgentEndpoint,
        server_module.HostEndpoint,
    ):
        for name in _handlers(cls, "op_"):
            recorder.wrap(cls, name, "handler." + name[len("op_"):])
    for name in _handlers(server_module.NodeServer, "nodeop_"):
        recorder.wrap(server_module.NodeServer, name, "handler." + name[len("nodeop_"):])
    recorder.wrap(DurableStore, "log", "storage.log")
    recorder.wrap(DurableStore, "snapshot", "storage.snapshot")
    recorder.wrap(wal_module.WriteAheadLog, "append", "wal.append", note=_wal_record_bytes)
    recorder.wrap(wal_module.WriteAheadLog, "sync", "wal.sync")
    recorder.wrap(HashFunctionCopy, "resolve", "core.resolve")
    recorder.wrap(HashFunctionCopy, "apply_ops", "core.apply_ops")
    recorder.wrap(HashFunctionCopy, "candidates", "core.candidates")
    for name in TREE_METHODS:
        recorder.wrap(HashTree, name, f"core.tree.{name}")


@dataclass
class WindowCounts:
    """What the measured window did, from outside the span list."""

    #: Wall seconds of the window.
    seconds: float
    #: Measured ops (attempted); the per-op denominator.
    ops: int
    #: Client-counter deltas summed over the lanes' clients.
    client: Dict[str, int] = field(default_factory=dict)
    #: LHAgent refreshes over the window, total and delta-synced.
    lhagent_refreshes: int = 0
    lhagent_delta_refreshes: int = 0
    splits: int = 0
    merges: int = 0
    #: Simulator counters (zero on the live workloads).
    sim_events: int = 0
    sim_messages: int = 0
    sim_located: int = 0
    sim_splits: int = 0
    sim_final_iagents: int = 0
    loop_lag_s: List[float] = field(default_factory=list)
    cpu_s: float = 0.0
    throughput_ops_s: float = 0.0
    untraced_throughput_ops_s: float = 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (MB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))]


def _mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(spans: Sequence[Optional[Span]], window: WindowCounts) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced window."""
    by_name: Dict[str, List[int]] = {}
    for index, span in enumerate(spans):
        if span is not None:
            by_name.setdefault(span[0], []).append(index)
    client_names = {f"client.{op}" for op in CLIENT_OPS}
    selfs = self_times(
        spans,
        [
            index
            for name in (*client_names, "channel.call", "server.dispatch", "wal.append")
            for index in by_name.get(name, ())
        ],
    )

    def durations_us(name: str) -> List[float]:
        return [(spans[i][2] - spans[i][1]) / 1e3 for i in by_name.get(name, ())]

    def self_us(name: str) -> List[float]:
        return [selfs[i] / 1e3 for i in by_name.get(name, ())]

    def note_sum(name: str) -> int:
        return sum(spans[i][4] or 0 for i in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    ops = window.ops
    seconds = window.seconds
    client_calls = [
        i
        for i in by_name.get("channel.call", ())
        if spans[i][3] is not None and spans[spans[i][3]][0] in client_names
    ]
    client_self = [v for name in client_names for v in self_us(name)]
    dispatch_self = self_us("server.dispatch")
    counters = window.client

    # Core busy time: core spans not nested in another core span.
    core_top = 0
    for name, indices in by_name.items():
        if not name.startswith("core."):
            continue
        for i in indices:
            parent = spans[i][3]
            if parent is None or not spans[parent][0].startswith("core."):
                core_top += spans[i][2] - spans[i][1]

    encode_us = durations_us("wire.encode")
    decode_us = durations_us("wire.decode")
    appends = count("wal.append")
    hedges = counters.get("hedges", 0)
    splits = window.splits
    return {
        "client.self_us_per_op": _ratio(sum(client_self), ops),
        "client.rpcs_per_op": _ratio(len(client_calls), ops),
        "client.retries_per_kop": _ratio(1e3 * counters.get("retries", 0), ops),
        "client.not_responsible_per_kop": _ratio(1e3 * counters.get("not_responsible", 0), ops),
        "client.refreshes_per_kop": _ratio(1e3 * counters.get("refreshes", 0), ops),
        "client.hedges": float(hedges),
        "client.hedge_win_ratio": _ratio(counters.get("hedge_wins", 0), hedges),
        "channel.call_p50_us": quantile(
            [(spans[i][2] - spans[i][1]) / 1e3 for i in client_calls], 0.50
        ),
        "channel.call_p99_us": quantile(
            [(spans[i][2] - spans[i][1]) / 1e3 for i in client_calls], 0.99
        ),
        "channel.wait_us_per_call": _mean(selfs[i] / 1e3 for i in client_calls),
        "wire.frames_per_op": _ratio(count("wire.encode"), ops),
        "wire.bytes_per_op": _ratio(note_sum("wire.encode"), ops),
        "wire.encode_us_per_frame": _mean(encode_us),
        "wire.decode_us_per_frame": _mean(decode_us),
        "wire.busy_share": _ratio((sum(encode_us) + sum(decode_us)) / 1e6, seconds),
        "server.dispatches_per_op": _ratio(count("server.dispatch"), ops),
        "server.self_us_per_dispatch": _mean(dispatch_self),
        "server.dispatch_p99_us": quantile(durations_us("server.dispatch"), 0.99),
        "server.handler_us.locate": _mean(durations_us("handler.locate")),
        "server.handler_us.whois": _mean(durations_us("handler.whois")),
        "server.handler_us.update": _mean(durations_us("handler.update")),
        "rehash.splits_per_s": _ratio(splits, seconds),
        "rehash.merges": float(window.merges),
        "rehash.reports_per_s": _ratio(
            sum(1 for i in by_name.get("hagent.dispatch", ()) if spans[i][4] == "load-report"),
            seconds,
        ),
        "rehash.step_us_per_split": _ratio(
            sum(sum(durations_us(name)) for name in REHASH_STEPS), splits
        ),
        "lhagent.whois_us": _mean(durations_us("handler.whois")),
        "lhagent.refreshes": float(window.lhagent_refreshes),
        "lhagent.delta_share": _ratio(window.lhagent_delta_refreshes, window.lhagent_refreshes),
        "storage.appends_per_op": _ratio(appends, ops),
        "storage.append_us": _mean(self_us("wal.append")),
        "storage.syncs_per_s": _ratio(count("wal.sync"), seconds),
        "storage.sync_us": _mean(durations_us("wal.sync")),
        "storage.snapshots": float(count("storage.snapshot")),
        "storage.bytes_per_op": _ratio(note_sum("wal.append"), ops),
        "core.resolves_per_op": _ratio(count("core.resolve"), ops),
        "core.resolve_us": _mean(durations_us("core.resolve")),
        "core.busy_share": _ratio(core_top / 1e9, seconds),
        "sim.events": float(window.sim_events),
        "sim.messages_per_locate": _ratio(window.sim_messages, window.sim_located),
        "sim.events_per_s": _ratio(window.sim_events, seconds),
        "sim.splits": float(window.sim_splits),
        "sim.final_iagents": float(window.sim_final_iagents),
        "loop.lag_p99_ms": quantile(window.loop_lag_s, 0.99) * 1e3,
        "proc.cpu_util": _ratio(window.cpu_s, seconds),
        "trace.throughput_ops_s": window.throughput_ops_s,
        "trace.overhead_share": (
            1.0 - window.throughput_ops_s / window.untraced_throughput_ops_s
            if window.untraced_throughput_ops_s
            else 0.0
        ),
    }
