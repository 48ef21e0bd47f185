"""IAgents: the Information Agents that track mobile-agent locations.

Each IAgent maintains, "for each mobile agent it serves, its id and its
precise current location" (paper §2.2), plus the running load statistics
that drive rehashing. An IAgent knows its *coverage* -- the prefix
pattern derived from its leaf's hyper-label -- and refuses requests for
agents outside it with a ``not-responsible`` reply, which is what
triggers the lazy propagation of hash-function updates (§4.3).

The record table and its handlers live in :mod:`repro.core.records`,
shared with the live service; this class is the simulator's driver: the
mailbox, the load report, relay mail (messaging) and placement.

IAgents are themselves mobile agents; with the placement extension
enabled (paper §7) they periodically migrate towards the node hosting
the plurality of the agents they serve.

Wire protocol (op -> body -> reply):

=================  =============================================  =======
``register``       ``{"agent": AgentId, "node": str}``            status
``update``         ``{"agent": AgentId, "node": str}``            status
``unregister``     ``{"agent": AgentId}``                         status
``locate``         ``{"agent": AgentId}``                         status + node + seq
``get-loads``      --                                             per-agent loads
``extract``        ``{"pattern": str}``                           evicted records
``extract-all``    --                                             all records
``adopt``          ``{"records", "loads", "pattern"}``            status
``set-coverage``   ``{"pattern": str}``                           status
=================  =============================================  =======

Records travel as ``[node, seq]`` pairs. Replies are dicts with a
``"status"`` key: ``"ok"``, ``"not-responsible"`` or ``"no-record"``.
Using statuses instead of exceptions keeps the NOT_RESPONSIBLE path a
first-class protocol outcome, as in the paper.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.core.load import GroupedLoadStatistics, LoadStatistics
from repro.core.records import (
    NO_RECORD,
    NOT_RESPONSIBLE,
    OK,
    RecordTable,
    pattern_matches,
)
from repro.platform.agents import MobileAgent
from repro.platform.events import Timeout
from repro.platform.messages import Request, RpcError
from repro.platform.naming import AgentId

__all__ = ["IAgent", "NO_RECORD", "NOT_RESPONSIBLE", "OK", "pattern_matches"]


class IAgent(MobileAgent):
    """An Information Agent: the directory shard for one hash-tree leaf."""

    size = 30_000  # carries its record table when migrating

    def __init__(self, agent_id: AgentId, runtime, mechanism) -> None:
        super().__init__(agent_id, runtime, tracked=False)
        self.service_time = mechanism.config.iagent_service_time
        self.mailbox.set_service_time(self.service_time)
        self.mechanism = mechanism
        config = mechanism.config
        if config.stats_granularity == "grouped":
            self.stats = GroupedLoadStatistics(
                config.rate_window, group_depth=config.stats_group_depth
            )
        else:
            self.stats = LoadStatistics(config.rate_window)
        #: Coverage, records (agent id -> [node, seq]; the simulator sends
        #: no sequence numbers, so every seq is 0) and capability sets,
        #: answered through the handlers shared with the live service.
        self.table = RecordTable(self.stats, lambda: self.sim.now)
        #: agent id -> list of undelivered relay messages (the messaging
        #: extension, :mod:`repro.core.messaging`): each entry is a dict
        #: with ``payload``, ``ack`` routing info and a ``deadline``.
        self.pending_messages: Dict[AgentId, list] = {}
        self._reporter_running = False

    # The table's state, read-only: coverage (None until the HAgent
    # hands one over), records and capability sets.
    coverage = property(lambda self: self.table.coverage)
    records = property(lambda self: self.table.records)
    capabilities = property(lambda self: self.table.capabilities)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def main(self) -> Generator:
        """Periodically report the window rate to the HAgent."""
        self._reporter_running = True
        config = self.mechanism.config
        while self.alive:
            yield Timeout(config.report_interval)
            if not self.alive:
                break
            if self.node is None:
                continue  # mid-migration (placement move): skip a beat
            self._expire_pending_messages()
            try:
                yield self.rpc(
                    self.mechanism.hagent_node,
                    self.mechanism.hagent_id,
                    "load-report",
                    {
                        "owner": self.agent_id,
                        "rate": self.stats.rate(self.sim.now),
                        "mature": self.stats.total.mature(
                            self.sim.now, config.warmup_fraction
                        ),
                        "records": len(self.records),
                        # Measured mean service time, feeding the
                        # adaptive threshold heuristic at the HAgent.
                        "service_estimate": (
                            self.mailbox.busy_time
                            / max(self.mailbox.jobs_processed, 1)
                        ),
                    },
                    timeout=config.rpc_timeout,
                )
            except RpcError:
                # The HAgent may be crashed (failover experiments) or
                # mid-rehash; reporting is best-effort by design.
                continue

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def handle(self, request: Request) -> Any:
        handler = getattr(self, "_op_" + request.op.replace("-", "_"), None)
        if handler is None:
            raise ValueError(f"IAgent does not understand op {request.op!r}")
        return handler(request.body or {})

    def _op_register(self, body: Dict) -> Dict:
        return self.table.register(body)[0]

    def _op_update(self, body: Dict) -> Dict:
        reply = self.table.update(body)[0]
        agent_id = body["agent"]
        if reply["status"] == OK and self.pending_messages.get(agent_id):
            # The messaging extension: an update is the moment a fast
            # mover is pinned down -- chase it with its relay mail.
            self.sim.spawn(
                self._forward_pending(agent_id, body["node"]),
                name=f"relay-{agent_id.short()}",
            )
        return reply

    def _op_unregister(self, body: Dict) -> Dict:
        return self.table.unregister(body)[0]

    def _op_locate(self, body: Dict) -> Dict:
        return self.table.locate(body)[0]

    # -- discovery subsystem ---------------------------------------------

    def _op_set_capabilities(self, body: Dict) -> Dict:
        return self.table.set_capabilities(body)[0]

    def _op_discover_similar(self, body: Dict) -> Dict:
        return self.table.discover_similar(body)[0]

    def _op_discover_capability(self, body: Dict) -> Dict:
        return self.table.discover_capability(body)[0]

    # -- messaging extension (paper §6 future work) ----------------------

    def _op_deposit_message(self, body: Dict) -> Any:
        """Hold a message for a served agent; forwarded on its next
        update (or immediately if its location is already known)."""
        target = body["target"]
        if not pattern_matches(self.coverage, target.bits):
            return {"status": NOT_RESPONSIBLE}
        entry = {
            "payload": body["payload"],
            "ack": body.get("ack"),
            "deadline": body["deadline"],
            "attempts": 0,
        }
        self.pending_messages.setdefault(target, []).append(entry)
        record = self.records.get(target)
        if record is not None:
            self.sim.spawn(
                self._forward_pending(target, record[0]),
                name=f"relay-{target.short()}",
            )
        return {"status": OK}

    def _forward_pending(self, target: AgentId, node: str) -> Generator:
        """Try to push every pending message for ``target`` to ``node``."""
        entries = self.pending_messages.get(target, [])
        for entry in list(entries):
            if entry not in entries:
                continue  # a concurrent forwarding pass delivered it
            if self.sim.now > entry["deadline"]:
                entries.remove(entry)
                continue
            try:
                yield self.rpc(
                    node,
                    target,
                    "user-message",
                    entry["payload"],
                    timeout=self.mechanism.config.rpc_timeout,
                )
            except RpcError:
                entry["attempts"] += 1
                continue  # it moved again; the next update retries
            if entry in entries:
                entries.remove(entry)
            yield from self._send_relay_ack(entry)
        if not entries:
            self.pending_messages.pop(target, None)

    def _send_relay_ack(self, entry: Dict) -> Generator:
        ack = entry.get("ack")
        if ack is None:
            return
        try:
            yield self.rpc(
                ack["node"],
                ack["agent"],
                "relay-ack",
                {"token": ack["token"], "attempts": entry["attempts"]},
                timeout=self.mechanism.config.rpc_timeout,
            )
        except RpcError:
            return  # the sender gave up; nothing to report to

    def _expire_pending_messages(self) -> None:
        now = self.sim.now
        for target in list(self.pending_messages):
            entries = [
                entry
                for entry in self.pending_messages[target]
                if entry["deadline"] >= now
            ]
            if entries:
                self.pending_messages[target] = entries
            else:
                del self.pending_messages[target]

    # -- rehashing support ---------------------------------------------

    def _op_get_loads(self, body: Dict) -> Dict:
        return self.table.get_loads(body)[0]

    def _op_extract(self, body: Dict) -> Dict:
        """Shrink coverage to ``pattern``; hand back everything outside it,
        relay mail included."""
        reply = self.table.extract(body)[0]
        pending = self.pending_messages
        moved_pending = {
            agent_id: pending.pop(agent_id)
            for agent_id in reply["records"]
            if agent_id in pending
        }
        # Orphaned relay mail for agents that never registered here also
        # moves if their ids fall outside the new coverage.
        for agent_id in list(pending):
            if not pattern_matches(body["pattern"], agent_id.bits):
                moved_pending[agent_id] = pending.pop(agent_id)
        reply["pending"] = moved_pending
        return reply

    def _op_extract_all(self, body: Dict) -> Dict:
        """Give up everything (this IAgent is being merged away)."""
        reply = self.table.extract_all(body)[0]
        reply["pending"], self.pending_messages = self.pending_messages, {}
        return reply

    def _op_adopt(self, body: Dict) -> Dict:
        """Take over transferred records, relay mail and coverage."""
        reply = self.table.adopt(body)[0]
        for agent_id, entries in body.get("pending", {}).items():
            self.pending_messages.setdefault(agent_id, []).extend(entries)
            record = self.records.get(agent_id)
            if record is not None:
                self.sim.spawn(
                    self._forward_pending(agent_id, record[0]),
                    name=f"relay-{agent_id.short()}",
                )
        return reply

    def _op_set_coverage(self, body: Dict) -> Dict:
        return self.table.set_coverage(body)[0]

    def _op_ping(self, body: Dict) -> Dict:
        return {"status": OK, "node": self.node_name, "records": len(self.records)}

    # ------------------------------------------------------------------
    # Placement extension (paper §7)
    # ------------------------------------------------------------------

    def plurality_node(self) -> Optional[str]:
        """The node hosting the largest share of this IAgent's agents.

        Returns ``None`` when the share does not reach the configured
        majority or there are too few records for the plurality to be
        signal rather than noise.
        """
        if len(self.records) < self.mechanism.config.placement_min_records:
            return None
        counts: Dict[str, int] = {}
        for node, _ in self.records.values():
            counts[node] = counts.get(node, 0) + 1
        best_node = max(counts, key=lambda name: (counts[name], name))
        if counts[best_node] < self.mechanism.config.placement_majority * len(
            self.records
        ):
            return None
        return best_node
