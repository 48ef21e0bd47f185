"""The IAgent record table: one state machine for every driver.

An IAgent keeps, "for each mobile agent it serves, its id and its
precise current location" (paper §2.2), refuses ids outside its
coverage with NOT_RESPONSIBLE (the trigger of the lazy refresh, §4.3),
and hands records to other IAgents through extract and adopt when the
HAgent splits or merges its leaf (§4.1-4.2).

The simulator's :class:`repro.core.iagent.IAgent`, the live
:class:`repro.service.server.IAgentEndpoint` and the live endpoint's
crash recovery all drive this one table. Each :class:`RecordTable`
handler validates its input, computes its reply and at most one
*mutation* (a plain dict, the journal entry) and applies it through
:func:`apply`, the only code that writes the table. The live endpoint
journals the mutation, so ``DurableStore.recover(initial_state, apply)``
re-runs exactly the handlers' transitions; the simulator sends no
sequence numbers (every ``seq`` is 0) and discards it.

The durable state is ``{"coverage", "records", "capabilities"}`` with
``records`` mapping agent id -> ``[node, seq]``. Mutation kinds:
``put`` / ``adopt`` (store when ``seq >= existing seq``), ``del``,
``caps``, ``coverage``, ``extract`` (drop everything outside a pattern)
and ``clear``; docs/PROTOCOLS.md §9 tabulates their bodies.

Load statistics are soft state outside the table: each driver lends
its statistics object and clock, and the handlers record traffic there.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.discovery.capability import matches_predicate, validate_capabilities
from repro.discovery.hamming import ids_within

__all__ = [
    "NOT_RESPONSIBLE",
    "NO_RECORD",
    "OK",
    "Outcome",
    "RecordTable",
    "apply",
    "initial_state",
    "pattern_matches",
]

#: Status strings of the IAgent protocol.
OK = "ok"
NOT_RESPONSIBLE = "not-responsible"
NO_RECORD = "no-record"

#: What every handler returns: the reply and the mutation it applied.
Outcome = Tuple[Dict[str, Any], Optional[Dict[str, Any]]]


def pattern_matches(pattern: Optional[str], bits: str) -> bool:
    """Whether id ``bits`` fall inside a coverage ``pattern``.

    ``pattern`` uses ``0``/``1`` for constrained positions and ``x`` for
    wildcards (see :meth:`repro.core.labels.HyperLabel.pattern`). ``""``
    covers everything; ``None`` covers nothing (a freshly created IAgent
    that has not been handed its coverage yet).
    """
    if pattern is None:
        return False
    if len(pattern) > len(bits):
        return False
    return all(p in ("x", b) for p, b in zip(pattern, bits))


def initial_state() -> Dict[str, Any]:
    """An empty table that covers nothing."""
    return {"coverage": None, "records": {}, "capabilities": {}}


def _newer(existing: Optional[List], seq: int) -> bool:
    """The sequence-number rule: a record is replaced by one at least as new."""
    return existing is None or seq >= existing[1]


def apply(state: Dict[str, Any], mutation: Dict[str, Any]) -> None:
    """Apply one mutation to a table state in place (the only writer)."""
    records = state["records"]
    # setdefault: snapshots written before the discovery subsystem have
    # no capability table.
    capabilities = state.setdefault("capabilities", {})
    kind = mutation["op"]
    if kind == "put":
        agent_id = mutation["agent"]
        if _newer(records.get(agent_id), mutation["seq"]):
            records[agent_id] = [mutation["node"], mutation["seq"]]
            if "caps" in mutation:
                capabilities[agent_id] = mutation["caps"]
    elif kind == "del":
        records.pop(mutation["agent"], None)
        capabilities.pop(mutation["agent"], None)
    elif kind == "caps":
        if mutation["caps"] is None:
            capabilities.pop(mutation["agent"], None)
        elif mutation["agent"] in records:
            capabilities[mutation["agent"]] = mutation["caps"]
    elif kind == "coverage":
        state["coverage"] = mutation["pattern"]
    elif kind == "extract":
        for agent_id in list(records):
            if not pattern_matches(mutation["pattern"], agent_id.bits):
                del records[agent_id]
                capabilities.pop(agent_id, None)
        state["coverage"] = mutation["pattern"]
    elif kind == "clear":
        state.update(initial_state())
    elif kind == "adopt":
        if "pattern" in mutation:
            state["coverage"] = mutation["pattern"]
        caps_in = mutation.get("capabilities", {})
        for agent_id, record in mutation["records"].items():
            if _newer(records.get(agent_id), record[1]):
                records[agent_id] = list(record)
                if agent_id in caps_in:
                    capabilities[agent_id] = caps_in[agent_id]
    else:
        raise ValueError(f"unknown IAgent mutation {kind!r}")


class RecordTable:
    """One IAgent's records, coverage and capabilities, plus its handlers.

    ``stats`` is the driver's :class:`repro.core.load.LoadStatistics`
    (or grouped variant) and ``clock`` its time source: simulated time
    in the simulator, ``time.monotonic`` in the live service.
    """

    __slots__ = ("state", "stats", "clock")

    def __init__(
        self,
        stats: Any,
        clock: Callable[[], float],
        state: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.state = initial_state() if state is None else state
        self.state.setdefault("capabilities", {})
        self.stats = stats
        self.clock = clock

    # Read views of the state; only :func:`apply` writes it.
    coverage = property(lambda self: self.state["coverage"])
    records = property(lambda self: self.state["records"])
    capabilities = property(lambda self: self.state["capabilities"])

    def _apply(self, reply: Dict[str, Any], mutation: Dict[str, Any]) -> Outcome:
        apply(self.state, mutation)
        return reply, mutation

    def _covers(self, agent_id: Any) -> bool:
        return pattern_matches(self.state["coverage"], agent_id.bits)

    # -- point operations ------------------------------------------------

    def register(self, body: Dict[str, Any]) -> Outcome:
        """Store ``node`` (and capabilities, if given) unless the record
        is newer; a validation error leaves the table untouched."""
        agent_id, node, seq = body["agent"], body["node"], body.get("seq", 0)
        if not self._covers(agent_id):
            return {"status": NOT_RESPONSIBLE}, None
        caps = body.get("capabilities")
        if caps is not None:
            caps = validate_capabilities(caps)
        self.stats.record_update(agent_id, self.clock())
        if not _newer(self.records.get(agent_id), seq):
            return {"status": OK}, None
        mutation = {"op": "put", "agent": agent_id, "node": node, "seq": seq}
        if caps is not None:
            mutation["caps"] = caps
        return self._apply({"status": OK}, mutation)

    update = register

    def unregister(self, body: Dict[str, Any]) -> Outcome:
        agent_id = body["agent"]
        if not self._covers(agent_id):
            return {"status": NOT_RESPONSIBLE}, None
        existing = self.records.get(agent_id)
        if existing is None or body.get("seq", 0) < existing[1]:
            return {"status": OK}, None
        self.stats.forget_agent(agent_id)
        return self._apply({"status": OK}, {"op": "del", "agent": agent_id})

    def locate(self, body: Dict[str, Any]) -> Outcome:
        agent_id = body["agent"]
        if not self._covers(agent_id):
            return {"status": NOT_RESPONSIBLE}, None
        self.stats.record_query(agent_id, self.clock())
        record = self.records.get(agent_id)
        if record is None:
            return {"status": NO_RECORD}, None
        return {"status": OK, "node": record[0], "seq": record[1]}, None

    def set_capabilities(self, body: Dict[str, Any]) -> Outcome:
        agent_id = body["agent"]
        if not self._covers(agent_id):
            return {"status": NOT_RESPONSIBLE}, None
        if agent_id not in self.records:
            return {"status": NO_RECORD}, None
        caps = body.get("capabilities")
        if caps is not None:
            caps = validate_capabilities(caps)
        self.stats.record_update(agent_id, self.clock())
        return self._apply(
            {"status": OK}, {"op": "caps", "agent": agent_id, "caps": caps}
        )

    # -- discovery -------------------------------------------------------

    def stale_candidate(self, body: Dict[str, Any]) -> bool:
        """Whether a multi-result query targets a stale coverage.

        The querier passes the pattern its secondary copy attributes to
        this IAgent; if this leaf split, merged or was taken over since,
        answering would return a partial result set, so the query
        bounces with NOT_RESPONSIBLE and the §4.3 refresh recomputes
        the candidates.
        """
        pattern = body.get("pattern")
        return pattern is not None and pattern != self.coverage

    def discover_similar(self, body: Dict[str, Any]) -> Outcome:
        if self.stale_candidate(body):
            return {"status": NOT_RESPONSIBLE}, None
        records = self.records
        matches = [
            {
                "agent": other,
                "node": records[other][0],
                "seq": records[other][1],
                "distance": dist,
            }
            for other, dist in ids_within(records, body["agent"], body["d"])
        ]
        return {"status": OK, "matches": matches}, None

    def discover_capability(self, body: Dict[str, Any]) -> Outcome:
        if self.stale_candidate(body):
            return {"status": NOT_RESPONSIBLE}, None
        predicate = body["predicate"]
        records, capabilities = self.records, self.capabilities
        # Filter first, sort the (much smaller) match set after: sorting
        # the whole capability table per query dominates batched rounds.
        hits = sorted(
            agent_id
            for agent_id, caps in capabilities.items()
            if agent_id in records and matches_predicate(caps, predicate)
        )
        matches = [
            {
                "agent": agent_id,
                "node": records[agent_id][0],
                "seq": records[agent_id][1],
                "capabilities": capabilities[agent_id],
            }
            for agent_id in hits
        ]
        return {"status": OK, "matches": matches}, None

    # -- rehashing support (paper §4.1-4.2) ------------------------------

    def get_loads(self, body: Dict[str, Any]) -> Outcome:
        """Accumulated loads keyed by bit strings: full ids with per-agent
        statistics, ``stats_group_depth``-bit prefixes with grouped ones
        (the split planner copes with either)."""
        return {
            "status": OK,
            "loads": self.stats.bit_loads(),
            "rate": self.stats.rate(self.clock()),
        }, None

    def extract(self, body: Dict[str, Any]) -> Outcome:
        """Shrink coverage to ``pattern``; hand back everything outside it."""
        pattern = body["pattern"]
        stats, capabilities = self.stats, self.capabilities
        moved: Dict[Any, List] = {}
        loads: Dict[Any, int] = {}
        caps: Dict[Any, Dict] = {}
        for agent_id, record in self.records.items():
            if not pattern_matches(pattern, agent_id.bits):
                moved[agent_id] = record
                # One agent at a time: a grouped estimate depends on the
                # members its group still has.
                loads[agent_id] = stats.load_of(agent_id)
                stats.forget_agent(agent_id)
                if agent_id in capabilities:
                    caps[agent_id] = capabilities[agent_id]
        # The journal entry is O(1): replay recomputes the dropped
        # records from the pattern.
        outcome = self._apply(
            {"status": OK, "records": moved, "loads": loads, "capabilities": caps},
            {"op": "extract", "pattern": pattern},
        )
        stats.total.reset(self.clock())
        return outcome

    def extract_all(self, body: Dict[str, Any]) -> Outcome:
        """Give up everything (this IAgent is being merged away)."""
        records, caps = self.records, self.capabilities
        loads = {agent_id: self.stats.load_of(agent_id) for agent_id in records}
        for agent_id in records:
            self.stats.forget_agent(agent_id)
        return self._apply(
            {"status": OK, "records": records, "loads": loads, "capabilities": caps},
            {"op": "clear"},
        )

    def adopt(self, body: Dict[str, Any]) -> Outcome:
        """Take over transferred records (and optionally new coverage).

        Adopted records come from another IAgent, so (unlike extract)
        they ride in the journal entry itself.
        """
        mutation: Dict[str, Any] = {
            "op": "adopt",
            "records": {
                agent_id: list(record)
                for agent_id, record in body.get("records", {}).items()
            },
        }
        if body.get("capabilities"):
            mutation["capabilities"] = dict(body["capabilities"])
        if "pattern" in body:
            mutation["pattern"] = body["pattern"]
        outcome = self._apply({"status": OK}, mutation)
        for agent_id, load in body.get("loads", {}).items():
            self.stats.adopt_agent(agent_id, load)
        return outcome

    def set_coverage(self, body: Dict[str, Any]) -> Outcome:
        return self._apply(
            {"status": OK}, {"op": "coverage", "pattern": body["pattern"]}
        )
