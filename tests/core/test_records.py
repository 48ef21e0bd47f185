"""The shared IAgent record table (repro.core.records).

A hypothesis state machine drives the table through the live endpoint's
journaling path and checks, after every step, that the table equals a
plain reference model, that locate answers from it, and that recovering
the journal (snapshot + WAL suffix) rebuilds exactly the live table.
"""

import shutil
import tempfile
from types import SimpleNamespace

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.load import LoadStatistics
from repro.core.records import (
    NO_RECORD,
    NOT_RESPONSIBLE,
    OK,
    RecordTable,
    apply,
    initial_state,
    pattern_matches,
)
from repro.discovery.capability import CapabilityError
from repro.platform.naming import AgentId
from repro.service.server import IAgentEndpoint, ServiceConfig
from repro.storage import DurableStore

WIDTH = 4
AGENTS = [AgentId(value, width=WIDTH) for value in range(1 << WIDTH)]
PATTERNS = ["", "0", "1", "01", "1x", "x0", "x1x0"]
NODES = ["n0", "n1", "n2"]
VALID_CAPS = [{"lang": "py"}, {"gpu": True, "tags": ["a", "b"]}]
INVALID_CAPS = {"": 1}


def make_endpoint(store=None):
    """A live IAgent endpoint on a stub node: fencing always admits."""
    node = SimpleNamespace(config=ServiceConfig(), check_fence=lambda body, op: None)
    return IAgentEndpoint(AgentId(0, width=WIDTH), node, store=store)


def recover(store):
    return store.recover(initial=initial_state, apply=apply).state


class TestRejectedRegister:
    """A register whose capabilities fail validation changes nothing."""

    def test_memory_and_journal_stay_in_step(self, tmp_path):
        store = DurableStore(tmp_path, "iagent", fsync="never")
        endpoint = make_endpoint(store)
        endpoint.op_set_coverage({"pattern": ""})
        agent = AGENTS[5]
        endpoint.op_register({"agent": agent, "node": "n1", "seq": 1})
        logged = store.wal.last_lsn
        with pytest.raises(CapabilityError):
            endpoint.op_register(
                {"agent": agent, "node": "n2", "seq": 2, "capabilities": INVALID_CAPS}
            )
        assert endpoint.table.records == {agent: ["n1", 1]}
        assert endpoint.table.capabilities == {}
        assert store.wal.last_lsn == logged
        assert recover(store) == endpoint.table.state

    def test_rejected_set_capabilities_keeps_old_set(self):
        table = RecordTable(LoadStatistics(1.0), lambda: 0.0)
        table.set_coverage({"pattern": ""})
        table.register({"agent": AGENTS[1], "node": "n0", "capabilities": VALID_CAPS[0]})
        with pytest.raises(CapabilityError):
            table.set_capabilities({"agent": AGENTS[1], "capabilities": INVALID_CAPS})
        assert table.capabilities == {AGENTS[1]: VALID_CAPS[0]}


class TestParentStores:
    """Stores written before the shared table still recover."""

    def test_pre_discovery_snapshot_and_old_mutations(self, tmp_path):
        a, b, c, d = AGENTS[1], AGENTS[2], AGENTS[9], AGENTS[12]
        store = DurableStore(tmp_path, "iagent", fsync="never")
        # A snapshot from before the discovery subsystem: no capabilities.
        store.snapshot({"coverage": "", "records": {a: ["n0", 3], d: ["n1", 1]}})
        for mutation in [
            {"op": "put", "agent": b, "node": "n1", "seq": 1, "caps": {"lang": "py"}},
            {"op": "put", "agent": a, "node": "n2", "seq": 2},  # stale: skipped
            {"op": "put", "agent": c, "node": "n2", "seq": 0},
            {"op": "caps", "agent": c, "caps": {"gpu": True}},
            {"op": "caps", "agent": AGENTS[3], "caps": {"gpu": True}},  # no record
            {"op": "del", "agent": d},
            {"op": "extract", "pattern": "0"},
            {
                "op": "adopt",
                "records": {AGENTS[4]: ["n0", 5], a: ["n1", 2]},
                "capabilities": {AGENTS[4]: {"lang": "go"}, a: {"lang": "c"}},
            },
            {"op": "coverage", "pattern": "0x"},
        ]:
            store.log(mutation)
        assert recover(store) == {
            "coverage": "0x",
            "records": {a: ["n0", 3], b: ["n1", 1], AGENTS[4]: ["n0", 5]},
            "capabilities": {b: {"lang": "py"}, AGENTS[4]: {"lang": "go"}},
        }

    def test_clear_then_adopt_with_pattern(self, tmp_path):
        store = DurableStore(tmp_path, "iagent", fsync="never")
        store.log({"op": "put", "agent": AGENTS[1], "node": "n0", "seq": 0})
        store.log({"op": "clear"})
        store.log({"op": "adopt", "records": {AGENTS[8]: ["n1", 4]}, "pattern": "1"})
        assert recover(store) == {
            "coverage": "1",
            "records": {AGENTS[8]: ["n1", 4]},
            "capabilities": {},
        }

    def test_table_over_a_snapshot_without_capabilities(self):
        table = RecordTable(
            LoadStatistics(1.0), lambda: 0.0, {"coverage": "", "records": {}}
        )
        assert table.capabilities == {}


caps_choice = st.sampled_from([None, INVALID_CAPS] + VALID_CAPS)
agents = st.sampled_from(AGENTS)
seqs = st.integers(min_value=0, max_value=4)


class RecordTableMachine(RuleBasedStateMachine):
    """The table against a plain dict model, with journal recovery."""

    def __init__(self):
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="records-machine-")
        # A tiny snapshot cadence runs both the snapshot path and the
        # WAL-suffix path of recovery.
        self.store = DurableStore(
            self.directory, "iagent", fsync="never", snapshot_every=3
        )
        self.endpoint = make_endpoint(self.store)
        self.coverage = None
        self.records = {}
        self.caps = {}

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def covers(self, agent):
        return pattern_matches(self.coverage, agent.bits)

    @rule(
        op=st.sampled_from(["register", "update"]),
        agent=agents,
        node=st.sampled_from(NODES),
        seq=seqs,
        caps=caps_choice,
    )
    def store_record(self, op, agent, node, seq, caps):
        body = {"agent": agent, "node": node, "seq": seq}
        if caps is not None:
            body["capabilities"] = caps
        handler = getattr(self.endpoint, "op_" + op)
        if self.covers(agent) and caps is INVALID_CAPS:
            with pytest.raises(CapabilityError):
                handler(body)
            return
        reply = handler(body)
        if not self.covers(agent):
            assert reply == {"status": NOT_RESPONSIBLE}
            return
        assert reply == {"status": OK}
        existing = self.records.get(agent)
        if existing is None or seq >= existing[1]:
            self.records[agent] = [node, seq]
            if caps is not None:
                self.caps[agent] = caps

    @rule(agent=agents, seq=seqs)
    def unregister(self, agent, seq):
        reply = self.endpoint.op_unregister({"agent": agent, "seq": seq})
        if not self.covers(agent):
            assert reply == {"status": NOT_RESPONSIBLE}
            return
        assert reply == {"status": OK}
        existing = self.records.get(agent)
        if existing is not None and seq >= existing[1]:
            del self.records[agent]
            self.caps.pop(agent, None)

    @rule(agent=agents, caps=caps_choice)
    def set_capabilities(self, agent, caps):
        body = {"agent": agent, "capabilities": caps}
        if self.covers(agent) and agent in self.records and caps is INVALID_CAPS:
            with pytest.raises(CapabilityError):
                self.endpoint.op_set_capabilities(body)
            return
        status = self.endpoint.op_set_capabilities(body)["status"]
        if not self.covers(agent):
            assert status == NOT_RESPONSIBLE
        elif agent not in self.records:
            assert status == NO_RECORD
        else:
            assert status == OK
            if caps is None:
                self.caps.pop(agent, None)
            else:
                self.caps[agent] = caps

    @rule(pattern=st.sampled_from(PATTERNS))
    def extract(self, pattern):
        reply = self.endpoint.op_extract({"pattern": pattern})
        moved = {a: r for a, r in self.records.items() if not pattern_matches(pattern, a.bits)}
        assert reply["records"] == moved
        assert reply["capabilities"] == {a: self.caps[a] for a in moved if a in self.caps}
        for agent in moved:
            del self.records[agent]
            self.caps.pop(agent, None)
        self.coverage = pattern

    @rule()
    def extract_all(self):
        reply = self.endpoint.op_extract_all({})
        assert reply["records"] == self.records
        assert reply["capabilities"] == self.caps
        self.coverage, self.records, self.caps = None, {}, {}

    @rule(
        incoming=st.dictionaries(
            agents, st.tuples(st.sampled_from(NODES), seqs), max_size=4
        ),
        with_caps=st.sets(agents),
        pattern=st.none() | st.sampled_from(PATTERNS),
    )
    def adopt(self, incoming, with_caps, pattern):
        # Seqs range over the same small set as the model's, so adopted
        # records are by turns stale, equal and fresh.
        body = {
            "records": {a: [node, seq] for a, (node, seq) in incoming.items()},
            "capabilities": {a: VALID_CAPS[0] for a in incoming if a in with_caps},
            "loads": {a: 1 for a in incoming},
        }
        if pattern is not None:
            body["pattern"] = pattern
        assert self.endpoint.op_adopt(body) == {"status": OK}
        if pattern is not None:
            self.coverage = pattern
        for agent, (node, seq) in incoming.items():
            existing = self.records.get(agent)
            if existing is None or seq >= existing[1]:
                self.records[agent] = [node, seq]
                if agent in with_caps:
                    self.caps[agent] = VALID_CAPS[0]

    @rule(pattern=st.sampled_from(PATTERNS))
    def set_coverage(self, pattern):
        assert self.endpoint.op_set_coverage({"pattern": pattern}) == {"status": OK}
        self.coverage = pattern

    @invariant()
    def table_equals_model(self):
        assert self.endpoint.table.state == {
            "coverage": self.coverage,
            "records": self.records,
            "capabilities": self.caps,
        }

    @invariant()
    def locate_answers_from_the_model(self):
        for agent in AGENTS:
            reply = self.endpoint.op_locate({"agent": agent})
            if not self.covers(agent):
                assert reply == {"status": NOT_RESPONSIBLE}
            elif agent not in self.records:
                assert reply == {"status": NO_RECORD}
            else:
                node, seq = self.records[agent]
                assert reply == {"status": OK, "node": node, "seq": seq}

    @invariant()
    def recovery_equals_live_table(self):
        assert recover(self.store) == self.endpoint.table.state


RecordTableMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestRecordTableMachine = RecordTableMachine.TestCase
