"""Optimistic concurrency control + two-phase commit (§4, per FaSST [29]).

Message-driven coordinator/participant state machines:

* **Phase 1 (read & lock)** — the coordinator reads the read-set keys and
  locks the write-set keys; any key already locked aborts the transaction.
* **Phase 2 (validation)** — a second read of the read set; a changed
  version or a lock aborts.
* **Phase 3 (log)** — the coordinator appends key/value/version info to
  its coordinator log.  This is the commit point.
* **Phase 4 (commit)** — commit messages update the write-set keys, bump
  versions, release locks; acks complete the transaction.

Like the Paxos module, transport is a callback so the same code runs
under unit tests and over iPipe actors.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .hashtable import ExtensibleHashTable

SendFn = Callable[[str, "TxnMessage"], None]
_txn_ids = itertools.count(1)


@dataclass
class TxnMessage:
    kind: str                   # read_lock | read_lock_reply | validate |
                                # validate_reply | commit | commit_ack | abort
    txn_id: int
    sender: str
    reads: List[str] = field(default_factory=list)
    writes: Dict[str, bytes] = field(default_factory=dict)
    values: Dict[str, Tuple[Optional[bytes], int]] = field(default_factory=dict)
    ok: bool = True


@dataclass
class LogRecord:
    """A coordinator-log entry: the commit-point record (§4 phase 3)."""

    txn_id: int
    writes: Dict[str, bytes]
    read_versions: Dict[str, int]

    @property
    def byte_size(self) -> int:
        return 32 + sum(len(k) + len(v) + 8 for k, v in self.writes.items())


@dataclass
class _TxnState:
    txn_id: int
    reads: List[str]
    writes: Dict[str, bytes]
    on_done: Callable[[bool, Dict[str, Optional[bytes]]], None]
    phase: int = 1
    participants: List[str] = field(default_factory=list)
    pending: Set[str] = field(default_factory=set)
    values: Dict[str, Optional[bytes]] = field(default_factory=dict)
    versions: Dict[str, int] = field(default_factory=dict)
    aborted: bool = False


class TxnCoordinator:
    """Runs OCC + 2PC against a set of participant nodes.

    ``owner_of(key)`` maps keys to participant names (static partitioning
    by hash in the full system).  ``log_append(record)`` is the phase-3
    hook — in the actor system it writes the coordinator-log DMO and may
    trigger a checkpoint to the host logging actor.
    """

    def __init__(self, name: str, participants: List[str], send: SendFn,
                 log_append: Optional[Callable[[LogRecord], None]] = None,
                 owner_of: Optional[Callable[[str], str]] = None):
        if not participants:
            raise ValueError("need at least one participant")
        self.name = name
        self.participants = list(participants)
        self.send = send
        self.log_append = log_append
        # crc32, not hash(): str hashing is salted per process, and the
        # partition map must not depend on PYTHONHASHSEED
        self.owner_of = owner_of or (
            lambda key: self.participants[
                zlib.crc32(key.encode()) % len(self.participants)])
        self._txns: Dict[int, _TxnState] = {}
        self.committed = 0
        self.aborted = 0
        self.response_cache: Dict[int, Tuple[bool, Dict[str, Optional[bytes]]]] = {}

    # -- client API ---------------------------------------------------------------
    def begin(self, reads: List[str], writes: Dict[str, bytes],
              on_done: Callable[[bool, Dict[str, Optional[bytes]]], None]) -> int:
        """Start a transaction; ``on_done(committed, read_values)`` fires
        at completion.  Returns the transaction id."""
        txn_id = next(_txn_ids)
        state = _TxnState(txn_id=txn_id, reads=list(reads),
                          writes=dict(writes), on_done=on_done)
        self._txns[txn_id] = state
        by_node: Dict[str, TxnMessage] = {}
        for key in state.reads:
            node = self.owner_of(key)
            by_node.setdefault(node, TxnMessage(
                "read_lock", txn_id, self.name)).reads.append(key)
        for key, value in state.writes.items():
            node = self.owner_of(key)
            by_node.setdefault(node, TxnMessage(
                "read_lock", txn_id, self.name)).writes[key] = value
        state.participants = list(by_node)
        state.pending = set(by_node)
        if not by_node:
            # empty transaction: nothing to read or lock — commit point is
            # still the log append, then complete immediately
            self._log_and_commit(state)
            return txn_id
        for node, msg in by_node.items():
            self.send(node, msg)
        return txn_id

    # -- participant replies ---------------------------------------------------------
    def handle(self, msg: TxnMessage) -> None:
        state = self._txns.get(msg.txn_id)
        if state is None:
            return
        if msg.kind == "read_lock_reply":
            self._on_read_lock_reply(state, msg)
        elif msg.kind == "validate_reply":
            self._on_validate_reply(state, msg)
        elif msg.kind == "commit_ack":
            self._on_commit_ack(state, msg)
        else:
            raise ValueError(f"coordinator got unexpected {msg.kind!r}")

    def _on_read_lock_reply(self, state: _TxnState, msg: TxnMessage) -> None:
        if state.phase != 1:
            return
        if not msg.ok:
            self._abort(state)
            return
        for key, (value, version) in msg.values.items():
            state.values[key] = value
            state.versions[key] = version
        state.pending.discard(msg.sender)
        if state.pending:
            return
        # Phase 2: validate the read set
        state.phase = 2
        read_nodes: Dict[str, TxnMessage] = {}
        for key in state.reads:
            node = self.owner_of(key)
            read_nodes.setdefault(node, TxnMessage(
                "validate", state.txn_id, self.name)).reads.append(key)
        if not read_nodes:       # write-only transaction skips validation
            self._log_and_commit(state)
            return
        state.pending = set(read_nodes)
        for node, vmsg in read_nodes.items():
            self.send(node, vmsg)

    def _on_validate_reply(self, state: _TxnState, msg: TxnMessage) -> None:
        if state.phase != 2:
            return
        if not msg.ok:
            self._abort(state)
            return
        for key, (_value, version) in msg.values.items():
            if state.versions.get(key) != version:
                self._abort(state)
                return
        state.pending.discard(msg.sender)
        if not state.pending:
            self._log_and_commit(state)

    def _log_and_commit(self, state: _TxnState) -> None:
        # Phase 3: log — the commit point.
        state.phase = 3
        record = LogRecord(
            txn_id=state.txn_id, writes=dict(state.writes),
            read_versions={k: state.versions.get(k, 0) for k in state.reads})
        if self.log_append is not None:
            self.log_append(record)
        # Phase 4: commit to the write-set owners.
        state.phase = 4
        write_nodes: Dict[str, TxnMessage] = {}
        for key, value in state.writes.items():
            node = self.owner_of(key)
            write_nodes.setdefault(node, TxnMessage(
                "commit", state.txn_id, self.name)).writes[key] = value
        if not write_nodes:      # read-only transaction
            self._finish(state, committed=True)
            return
        state.pending = set(write_nodes)
        for node, cmsg in write_nodes.items():
            self.send(node, cmsg)

    def _on_commit_ack(self, state: _TxnState, msg: TxnMessage) -> None:
        if state.phase != 4:
            return
        state.pending.discard(msg.sender)
        if not state.pending:
            self._finish(state, committed=True)

    def _abort(self, state: _TxnState) -> None:
        if state.aborted:
            return
        state.aborted = True
        for node in state.participants:
            self.send(node, TxnMessage("abort", state.txn_id, self.name,
                                       writes=dict(state.writes)))
        self._finish(state, committed=False)

    def _finish(self, state: _TxnState, committed: bool) -> None:
        self._txns.pop(state.txn_id, None)
        if committed:
            self.committed += 1
        else:
            self.aborted += 1
        self.response_cache[state.txn_id] = (committed, dict(state.values))
        state.on_done(committed, dict(state.values))


class TxnParticipant:
    """One partition of the data store, executing the participant side."""

    def __init__(self, name: str, send: SendFn,
                 store: Optional[ExtensibleHashTable] = None):
        self.name = name
        self.send = send
        self.store = store or ExtensibleHashTable()
        self.lock_conflicts = 0
        #: Abort tombstones: an ABORT can overtake this txn's still-in-flight
        #: READ_LOCK (message reordering); locking for a known-aborted txn
        #: would leak the locks forever, so remember aborted ids.
        self._aborted: set = set()

    def handle(self, msg: TxnMessage) -> None:
        handler = getattr(self, f"_on_{msg.kind}", None)
        if handler is None:
            raise ValueError(f"participant got unexpected {msg.kind!r}")
        handler(msg)

    def _owner(self, msg: TxnMessage) -> str:
        return f"txn-{msg.txn_id}"

    def _on_read_lock(self, msg: TxnMessage) -> None:
        owner = self._owner(msg)
        if msg.txn_id in self._aborted:
            self.send(msg.sender, TxnMessage(
                "read_lock_reply", msg.txn_id, self.name, ok=False))
            return
        # abort if any requested key is already locked (phase 1 rule)
        conflict = any(self.store.is_locked(k) for k in msg.reads)
        if not conflict:
            for key in msg.writes:
                if not self.store.try_lock(key, owner):
                    conflict = True
                    break
        if conflict:
            self.lock_conflicts += 1
            for key in msg.writes:
                self.store.unlock(key, owner)
            self.send(msg.sender, TxnMessage(
                "read_lock_reply", msg.txn_id, self.name, ok=False))
            return
        values = {}
        for key in msg.reads:
            got = self.store.get(key)
            values[key] = got if got is not None else (None, 0)
        self.send(msg.sender, TxnMessage(
            "read_lock_reply", msg.txn_id, self.name, values=values, ok=True))

    def _on_validate(self, msg: TxnMessage) -> None:
        values = {}
        ok = True
        for key in msg.reads:
            if self.store.is_locked(key):
                ok = False
            got = self.store.get(key)
            values[key] = got if got is not None else (None, 0)
        self.send(msg.sender, TxnMessage(
            "validate_reply", msg.txn_id, self.name, values=values, ok=ok))

    def _on_commit(self, msg: TxnMessage) -> None:
        owner = self._owner(msg)
        for key, value in msg.writes.items():
            self.store.commit_write(key, value, owner)
        self.send(msg.sender, TxnMessage("commit_ack", msg.txn_id, self.name))

    def _on_abort(self, msg: TxnMessage) -> None:
        owner = self._owner(msg)
        self._aborted.add(msg.txn_id)
        for key in msg.writes:
            self.store.unlock(key, owner)
