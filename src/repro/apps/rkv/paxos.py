"""Multi-Paxos replicated log (§4, Lamport's "Paxos made simple" [34]).

Each replica keeps an ordered log of instances.  A distinguished leader
receives client commands and, in the common case, commits an instance
with a single round of ACCEPT messages followed by a LEARN round.  On
leader failure, a replica runs the two-phase ballot protocol (PREPARE /
PROMISE), adopting any values already accepted so agreed instances are
never lost, then fills log gaps.

The implementation is transport-agnostic: ``send(dst, message)`` is a
callback, so the same state machine runs over direct calls in unit tests
and over iPipe actors/network packets in the full system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

SendFn = Callable[[str, "PaxosMessage"], None]
CommitFn = Callable[[int, Any], None]


@dataclass
class PaxosMessage:
    kind: str                  # prepare | promise | accept | accepted | learn | nack
    sender: str
    instance: int = -1
    ballot: Tuple[int, str] = (0, "")
    value: Any = None
    #: PROMISE piggybacks previously accepted (ballot, value) per instance.
    accepted: Dict[int, Tuple[Tuple[int, str], Any]] = field(default_factory=dict)
    first_unchosen: int = 0


@dataclass(slots=True)
class LogEntry:
    promised: Tuple[int, str] = (0, "")
    accepted_ballot: Optional[Tuple[int, str]] = None
    accepted_value: Any = None
    committed: bool = False
    value: Any = None


class MultiPaxosNode:
    """One replica of the replicated state machine."""

    def __init__(self, name: str, peers: List[str], send: SendFn,
                 on_commit: Optional[CommitFn] = None,
                 initial_leader: Optional[str] = None):
        if name in peers:
            raise ValueError("peers must exclude self")
        self.name = name
        self.peers = list(peers)
        self.send = send
        self.on_commit = on_commit
        self.log: Dict[int, LogEntry] = {}
        self.next_instance = 0
        self.next_to_apply = 0
        self.ballot: Tuple[int, str] = (0, initial_leader or "")
        self.leader: Optional[str] = initial_leader
        self._accept_votes: Dict[int, Set[str]] = {}
        self._promise_votes: Dict[Tuple[int, str], Dict[str, PaxosMessage]] = {}
        self._pending_client: List[Any] = []
        self.committed_count = 0
        self.messages_sent = 0
        #: correctness hook (repro.check.PaxosMonitor): notified at every
        #: local commit so conflicting chosen values are caught at the
        #: committing call site, not at the next periodic scan.
        self.checker = None

    # -- helpers ---------------------------------------------------------------
    @property
    def cluster_size(self) -> int:
        return len(self.peers) + 1

    @property
    def quorum(self) -> int:
        return self.cluster_size // 2 + 1

    @property
    def is_leader(self) -> bool:
        return self.leader == self.name

    def _entry(self, instance: int) -> LogEntry:
        if instance not in self.log:
            self.log[instance] = LogEntry()
        return self.log[instance]

    def _broadcast(self, msg: PaxosMessage) -> None:
        for peer in self.peers:
            self.messages_sent += 1
            self.send(peer, msg)

    # -- client path (leader) ------------------------------------------------------
    def client_request(self, command: Any) -> Optional[int]:
        """Propose a command.  Returns the chosen instance (leader only)."""
        if not self.is_leader:
            self._pending_client.append(command)
            return None
        instance = self.next_instance
        self.next_instance += 1
        entry = self._entry(instance)
        entry.accepted_ballot = self.ballot
        entry.accepted_value = command
        self._accept_votes[instance] = {self.name}
        self._broadcast(PaxosMessage(
            kind="accept", sender=self.name, instance=instance,
            ballot=self.ballot, value=command))
        self._maybe_choose(instance)
        return instance

    # -- message handling --------------------------------------------------------------
    def handle(self, msg: PaxosMessage) -> None:
        handler = getattr(self, f"_on_{msg.kind}", None)
        if handler is None:
            raise ValueError(f"unknown paxos message kind {msg.kind!r}")
        handler(msg)

    def _on_accept(self, msg: PaxosMessage) -> None:
        entry = self._entry(msg.instance)
        # A PROMISE covers every instance from first_unchosen on, including
        # ones with no log entry yet — so the floor is the max of the
        # per-instance promise and the node-wide promised ballot.
        if msg.ballot >= max(entry.promised, self.ballot):
            entry.promised = msg.ballot
            entry.accepted_ballot = msg.ballot
            entry.accepted_value = msg.value
            self.leader = msg.ballot[1] or msg.sender
            self.messages_sent += 1
            self.send(msg.sender, PaxosMessage(
                kind="accepted", sender=self.name, instance=msg.instance,
                ballot=msg.ballot))
        else:
            self.messages_sent += 1
            self.send(msg.sender, PaxosMessage(
                kind="nack", sender=self.name, instance=msg.instance,
                ballot=entry.promised))

    def _on_accepted(self, msg: PaxosMessage) -> None:
        if msg.ballot != self.ballot:
            return
        votes = self._accept_votes.setdefault(msg.instance, {self.name})
        votes.add(msg.sender)
        self._maybe_choose(msg.instance)

    def _maybe_choose(self, instance: int) -> None:
        votes = self._accept_votes.get(instance, set())
        entry = self._entry(instance)
        if len(votes) >= self.quorum and not entry.committed:
            self._commit(instance, entry.accepted_value)
            self._broadcast(PaxosMessage(
                kind="learn", sender=self.name, instance=instance,
                ballot=self.ballot, value=entry.accepted_value))

    def re_propose_stalled(self) -> int:
        """Leader repair: re-broadcast ACCEPTs for uncommitted instances.

        Message loss can strand an instance below quorum forever, which
        stalls the contiguous apply loop (and every later instance with
        it).  Re-proposing the already-accepted value under the same
        ballot is idempotent — acceptors that already voted simply vote
        again — so a periodic repair tick restores liveness without
        touching safety.  Returns the number of instances re-proposed."""
        if not self.is_leader:
            return 0
        repaired = 0
        for instance in range(self.next_to_apply, self.next_instance):
            entry = self._entry(instance)
            if entry.committed or entry.accepted_value is None:
                continue
            self._accept_votes.setdefault(instance, {self.name})
            self._broadcast(PaxosMessage(
                kind="accept", sender=self.name, instance=instance,
                ballot=self.ballot, value=entry.accepted_value))
            repaired += 1
        return repaired

    def _on_learn(self, msg: PaxosMessage) -> None:
        entry = self._entry(msg.instance)
        if not entry.committed:
            self._commit(msg.instance, msg.value)
        self.leader = msg.ballot[1] or msg.sender

    def _commit(self, instance: int, value: Any) -> None:
        entry = self._entry(instance)
        entry.committed = True
        entry.value = value
        self.committed_count += 1
        if self.checker is not None:
            self.checker.note_commit(self.name, instance, value)
        self.next_instance = max(self.next_instance, instance + 1)
        # apply contiguous committed prefix in order
        while True:
            nxt = self.log.get(self.next_to_apply)
            if nxt is None or not nxt.committed:
                break
            if self.on_commit is not None:
                self.on_commit(self.next_to_apply, nxt.value)
            self.next_to_apply += 1

    # -- leader election (two-phase) ----------------------------------------------------
    def start_election(self) -> None:
        """Run phase 1 with a higher ballot to become leader."""
        self.ballot = (self.ballot[0] + 1, self.name)
        self._promise_votes[self.ballot] = {}
        self._broadcast(PaxosMessage(
            kind="prepare", sender=self.name, ballot=self.ballot,
            first_unchosen=self.next_to_apply))
        # self-promise
        self._record_promise(PaxosMessage(
            kind="promise", sender=self.name, ballot=self.ballot,
            accepted=self._accepted_since(self.next_to_apply)))

    def _accepted_since(self, start: int) -> Dict[int, Tuple[Tuple[int, str], Any]]:
        out = {}
        for instance, entry in self.log.items():
            if instance >= start and entry.accepted_ballot is not None:
                out[instance] = (entry.accepted_ballot, entry.accepted_value)
        return out

    def _on_prepare(self, msg: PaxosMessage) -> None:
        # promise only for ballots above anything promised on any instance
        current_max = max([self.ballot]
                          + [e.promised for e in self.log.values()])
        if msg.ballot > current_max or (msg.ballot == self.ballot
                                        and msg.ballot[1] == msg.sender):
            self.ballot = msg.ballot
            # Promising a foreign ballot dethrones us: only the ballot's
            # owner may propose under it.
            self.leader = msg.ballot[1] or msg.sender
            for entry in self.log.values():
                entry.promised = max(entry.promised, msg.ballot)
            self.messages_sent += 1
            self.send(msg.sender, PaxosMessage(
                kind="promise", sender=self.name, ballot=msg.ballot,
                accepted=self._accepted_since(msg.first_unchosen)))
        else:
            self.messages_sent += 1
            self.send(msg.sender, PaxosMessage(
                kind="nack", sender=self.name, ballot=current_max))

    def _on_promise(self, msg: PaxosMessage) -> None:
        self._record_promise(msg)

    def _record_promise(self, msg: PaxosMessage) -> None:
        votes = self._promise_votes.get(msg.ballot)
        if votes is None or msg.ballot != self.ballot:
            return
        votes[msg.sender] = msg
        if len(votes) >= self.quorum and self.leader != self.name:
            self.leader = self.name
            # adopt the highest-ballot accepted value per instance
            adopted: Dict[int, Tuple[Tuple[int, str], Any]] = {}
            for promise in votes.values():
                for instance, (ballot, value) in promise.accepted.items():
                    if instance not in adopted or ballot > adopted[instance][0]:
                        adopted[instance] = (ballot, value)
            for instance, (_ballot, value) in sorted(adopted.items()):
                entry = self._entry(instance)
                if entry.committed:
                    continue
                entry.accepted_ballot = self.ballot
                entry.accepted_value = value
                self._accept_votes[instance] = {self.name}
                self._broadcast(PaxosMessage(
                    kind="accept", sender=self.name, instance=instance,
                    ballot=self.ballot, value=value))
                self.next_instance = max(self.next_instance, instance + 1)
            # drain queued client commands now that we lead
            pending, self._pending_client = self._pending_client, []
            for command in pending:
                self.client_request(command)

    def _on_nack(self, msg: PaxosMessage) -> None:
        if msg.ballot > self.ballot:
            self.leader = msg.ballot[1] or None
