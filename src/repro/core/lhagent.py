"""LHAgents: the per-node Local Hash Agents (paper §2.2, §4.3).

One LHAgent runs on every node and caches a *secondary copy* of the hash
function -- the hash tree plus the current IAgent locations. Copies "may
be temporarily out-of-date"; they are refreshed *on demand* only: when a
requester is bounced by an IAgent with NOT_RESPONSIBLE, it asks its
LHAgent to refresh. With delta sync enabled (the default) the LHAgent
asks the HAgent for just the journaled rehash operations since its copy's
version and replays them onto the copy in place -- O(ops) instead of
O(tree) per refresh -- falling back to the full snapshot when the journal
has been truncated past its version (or on failover to the backup HAgent,
which serves snapshots only).

Wire protocol:

======================  ==========================================  =================
``whois``               ``{"agent": AgentId}``                      owner + node + version
``refresh``             ``{"stale_version": int, "agent": AgentId}``  fresh whois
``discover-candidates``  ``{"agent": AgentId?, "d": int?}``         candidate IAgents
``version``             --                                          current copy version
======================  ==========================================  =================
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from repro.core.errors import CoreError
from repro.core.hash_tree import HashTree
from repro.platform.agents import Agent
from repro.platform.messages import Request, RpcError
from repro.platform.naming import AgentId

__all__ = ["LHAgent", "HashFunctionCopy", "apply_journal_entry"]


def apply_journal_entry(tree: HashTree, iagent_nodes: Dict, entry: Dict) -> None:
    """Apply one rehash journal entry to a tree and its IAgent directory.

    The one split / merge / move transition: secondary copies catching
    up by delta and the live HAgent replaying its WAL or a standby sync
    all go through it. An unknown entry kind raises :class:`CoreError`.
    """
    kind = entry["op"]
    if kind == "split":
        tree.replay_split(
            entry["kind"], entry["owner"], entry["bit"], entry["new_owner"]
        )
        iagent_nodes[entry["new_owner"]] = entry["new_node"]
    elif kind == "merge":
        tree.apply_merge(entry["owner"])
        iagent_nodes.pop(entry["owner"], None)
    elif kind == "move":
        iagent_nodes[entry["owner"]] = entry["node"]
    else:
        raise CoreError(f"unknown journal op {kind!r}")


class HashFunctionCopy:
    """One versioned copy of the hash function + IAgent directory."""

    __slots__ = ("version", "tree", "iagent_nodes")

    def __init__(self, version: int, tree: HashTree, iagent_nodes: Dict) -> None:
        self.version = version
        self.tree = tree
        self.iagent_nodes = dict(iagent_nodes)

    @classmethod
    def from_bundle(cls, bundle: Dict) -> "HashFunctionCopy":
        """Decode the wire form produced by the HAgent."""
        return cls(
            version=bundle["version"],
            tree=HashTree.from_spec(bundle["tree"]),
            iagent_nodes=bundle["iagent_nodes"],
        )

    def apply_ops(self, ops: List[Dict]) -> None:
        """Replay journaled rehash operations onto this copy in place.

        Each entry carries the version it produced at the primary;
        entries at or below this copy's version are skipped (duplicate
        delivery), so replay is idempotent. After replay the copy is
        bit-identical to the primary at the last entry's version.
        """
        for op in ops:
            if op["version"] <= self.version:
                continue
            apply_journal_entry(self.tree, self.iagent_nodes, op)
            self.version = op["version"]

    def resolve(self, agent_id: AgentId):
        """Map an agent id to ``(iagent_id, node_name)`` via this copy."""
        owner = self.tree.lookup(agent_id.bits)
        return owner, self.iagent_nodes.get(owner)

    def candidates(
        self, agent_id: Optional[AgentId], d: Optional[int]
    ) -> List[Dict]:
        """Candidate IAgents for a discovery query, best bound first.

        With a radius ``d``, the prefix-pruned Hamming walk selects only
        the IAgents whose region intersects the ball around ``agent_id``
        (``bound`` is the exact minimum distance to the region). With
        ``d=None`` (capability discovery) every IAgent is a candidate at
        bound 0 -- capabilities are not clustered by id prefix.

        This is the *shared* candidate step: the simulator LHAgent and
        the live LHAgentEndpoint both serve ``discover-candidates`` from
        their cached copies through this method, which is what pins the
        two stacks to the same algorithm.
        """
        if d is None:
            bounds = {owner: 0 for owner in self.tree.owners()}
        else:
            if agent_id is None:
                raise CoreError("similarity discovery requires an agent id")
            bounds = self.tree.find_within_hamming(agent_id.bits, d)
        out = [
            {
                "iagent": owner,
                "node": self.iagent_nodes.get(owner),
                "bound": bound,
                # The coverage pattern this copy believes the candidate
                # serves. The candidate echoes NOT_RESPONSIBLE when its
                # actual coverage differs, which is the staleness signal
                # driving the §4.3 refresh loop for multi-result queries
                # (there is no single queried id to bounce on).
                "pattern": self.tree.hyper_label(owner).pattern(),
            }
            for owner, bound in bounds.items()
        ]
        out.sort(key=lambda c: (c["bound"], str(c["iagent"])))
        return out


class LHAgent(Agent):
    """The Local Hash Agent of one node."""

    def __init__(self, agent_id: AgentId, runtime, mechanism) -> None:
        super().__init__(agent_id, runtime, tracked=False)
        self.service_time = mechanism.config.lhagent_service_time
        self.mailbox.set_service_time(self.service_time)
        self.mechanism = mechanism
        self.copy: Optional[HashFunctionCopy] = None
        #: Counters for the overhead accounting.
        self.refreshes = 0
        self.whois_served = 0
        self.delta_refreshes = 0
        self.full_refreshes = 0

    # ------------------------------------------------------------------

    def handle(self, request: Request) -> Any:
        if request.op == "whois":
            return self._whois(request.body)
        if request.op == "refresh":
            return self._refresh(request.body)
        if request.op == "discover-candidates":
            return self._discover_candidates(request.body)
        if request.op == "version":
            return {"version": self.copy.version if self.copy else -1}
        raise ValueError(f"LHAgent does not understand op {request.op!r}")

    def _whois(self, body: Dict) -> Generator:
        """Resolve an agent id with the cached copy, fetching one if absent."""
        if self.copy is None:
            yield from self._fetch_primary_copy()
        self.whois_served += 1
        owner, node = self.copy.resolve(body["agent"])
        return {"iagent": owner, "node": node, "version": self.copy.version}

    def _discover_candidates(self, body: Dict) -> Generator:
        """Candidate IAgents for a discovery query, from the cached copy."""
        if self.copy is None:
            yield from self._fetch_primary_copy()
        stale_version = body.get("stale_version")
        if stale_version is not None and self.copy.version <= stale_version:
            yield from self._fetch_primary_copy()
        self.whois_served += 1
        cands = self.copy.candidates(body.get("agent"), body.get("d"))
        return {"candidates": cands, "version": self.copy.version}

    def _refresh(self, body: Dict) -> Generator:
        """Refresh the copy if it is no newer than the requester's.

        The requester passes the version its stale mapping came from; if
        another request already refreshed past it, the fetch is skipped
        (the paper's on-demand propagation, with natural deduplication).
        """
        stale_version = body.get("stale_version", -1)
        if self.copy is None or self.copy.version <= stale_version:
            yield from self._fetch_primary_copy()
        owner, node = self.copy.resolve(body["agent"])
        return {"iagent": owner, "node": node, "version": self.copy.version}

    def _fetch_primary_copy(self) -> Generator:
        mechanism = self.mechanism
        config = mechanism.config
        timeout = (
            config.hagent_failover_timeout
            if config.enable_backup_hagent
            else config.rpc_timeout
        )
        use_delta = config.delta_sync and self.copy is not None
        try:
            if use_delta:
                reply = yield self.rpc(
                    mechanism.hagent_node,
                    mechanism.hagent_id,
                    "get-hash-delta",
                    {"since": self.copy.version},
                    timeout=timeout,
                    size=64,
                )
            else:
                reply = yield self.rpc(
                    mechanism.hagent_node,
                    mechanism.hagent_id,
                    "get-hash-function",
                    timeout=timeout,
                    size=2048,
                )
        except RpcError:
            if not config.enable_backup_hagent or mechanism.backup_id is None:
                raise
            # The backup serves full snapshots only.
            reply = yield self.rpc(
                mechanism.backup_node,
                mechanism.backup_id,
                "get-hash-function",
                timeout=config.rpc_timeout,
                size=2048,
            )
            use_delta = False
        self.refreshes += 1
        if use_delta and reply.get("mode") == "delta":
            try:
                self.copy.apply_ops(reply["ops"])
            except CoreError:
                # A journal the copy cannot replay (should not happen --
                # the HAgent checks contiguity) degrades to a snapshot
                # rather than wedging the node.
                reply = yield self.rpc(
                    mechanism.hagent_node,
                    mechanism.hagent_id,
                    "get-hash-function",
                    timeout=timeout,
                    size=2048,
                )
            else:
                self.delta_refreshes += 1
                return
        self.full_refreshes += 1
        fresh = HashFunctionCopy.from_bundle(reply)
        # Never step backwards: a slow response must not clobber a newer
        # copy installed by a concurrent refresh.
        if self.copy is None or fresh.version >= self.copy.version:
            self.copy = fresh
