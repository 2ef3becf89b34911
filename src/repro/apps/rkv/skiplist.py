"""DMO-backed skip list Memtable (Figure 12-b).

A traditional skip-list node holds a key string, a value pointer and a
forward-pointer array.  Built over distributed memory objects, the value
and the forwards become *object IDs*: dereferencing goes through the DMO
table, which is exactly the indirection that lets iPipe relocate the
whole structure between NIC and host during migration without rewriting
the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from ...core.dmo import DmoManager
from ...sim import Rng

MAX_LEVEL = 8
#: Skip lists promote with p = 1/2.
PROMOTE_P = 0.5

#: Sentinel object id meaning "no node".
NIL = 0


@dataclass(slots=True)
class _Node:
    """One skip-list node, stored as a DMO's data."""

    key: Optional[str]
    value_obj: int
    forwards: List[int]
    deleted: bool = False


class DmoSkipList:
    """An ordered map whose every node/value is a distributed memory object."""

    def __init__(self, dmo: DmoManager, owner: str, rng: Optional[Rng] = None):
        self.dmo = dmo
        self.owner = owner
        self.rng = rng or Rng(17)
        self.length = 0
        self.byte_size = 0
        # head node: no key, max-level forwards
        self._head_id = self._new_node(key=None, value_obj=NIL,
                                       level=MAX_LEVEL)

    # -- node helpers (each node is one DMO) --------------------------------
    def _new_node(self, key: Optional[str], value_obj: int, level: int) -> int:
        node = _Node(key, value_obj, [NIL] * level)
        size = 64 + (len(key) if key else 0) + 8 * level
        obj = self.dmo.malloc(self.owner, size, data=node)
        return obj.object_id

    def _node(self, object_id: int) -> _Node:
        return self.dmo.read(self.owner, object_id)

    def _random_level(self) -> int:
        level = 1
        while level < MAX_LEVEL and self.rng.random() < PROMOTE_P:
            level += 1
        return level

    # -- operations -----------------------------------------------------------
    def insert(self, key: str, value: bytes) -> None:
        """Insert or overwrite.  Deletions are insertions of a marker."""
        update: List[int] = [self._head_id] * MAX_LEVEL
        node_id = self._head_id
        node = self._node(node_id)
        for level in range(MAX_LEVEL - 1, -1, -1):
            while True:
                nxt = node.forwards[level] if level < len(node.forwards) else NIL
                if nxt == NIL:
                    break
                nxt_node = self._node(nxt)
                if nxt_node.key is not None and nxt_node.key < key:
                    node_id, node = nxt, nxt_node
                else:
                    break
            update[level] = node_id

        candidate = node.forwards[0] if node.forwards else NIL
        if candidate != NIL:
            cand_node = self._node(candidate)
            if cand_node.key == key:
                # overwrite: free old value object, attach new one
                if cand_node.value_obj != NIL:
                    old = self.dmo.read(self.owner, cand_node.value_obj)
                    self.byte_size -= len(old) if old else 0
                    self.dmo.free(self.owner, cand_node.value_obj)
                value_obj = self.dmo.malloc(self.owner, len(value), data=value)
                cand_node.value_obj = value_obj.object_id
                cand_node.deleted = False
                self.dmo.write(self.owner, candidate, cand_node)
                self.byte_size += len(value)
                return

        level = self._random_level()
        value_obj = self.dmo.malloc(self.owner, len(value), data=value)
        new_id = self._new_node(key, value_obj.object_id, level)
        new_node = self._node(new_id)
        for lvl in range(level):
            prev = self._node(update[lvl])
            new_node.forwards[lvl] = prev.forwards[lvl]
            prev.forwards[lvl] = new_id
            self.dmo.write(self.owner, update[lvl], prev)
        self.dmo.write(self.owner, new_id, new_node)
        self.length += 1
        self.byte_size += len(key) + len(value) + 64

    def delete(self, key: str) -> None:
        """LSM-style deletion: insert a tombstone marker."""
        found = self._find(key)
        if found is None:
            # tombstone for a key that may exist in lower levels
            self.insert(key, b"")
            found = self._find_node_id(key)
            node = self._node(found)
            node.deleted = True
            self.dmo.write(self.owner, found, node)
            return
        node_id = self._find_node_id(key)
        node = self._node(node_id)
        node.deleted = True
        self.dmo.write(self.owner, node_id, node)

    def get(self, key: str) -> Optional[bytes]:
        """Value for the key; None if absent or tombstoned."""
        node_id = self._find_node_id(key)
        if node_id is None:
            return None
        node = self._node(node_id)
        if node.deleted:
            return None
        if node.value_obj == NIL:
            return None
        return self.dmo.read(self.owner, node.value_obj)

    def is_tombstoned(self, key: str) -> bool:
        node_id = self._find_node_id(key)
        if node_id is None:
            return False
        return self._node(node_id).deleted

    def _find_node_id(self, key: str) -> Optional[int]:
        node = self._node(self._head_id)
        for level in range(MAX_LEVEL - 1, -1, -1):
            while True:
                nxt = node.forwards[level] if level < len(node.forwards) else NIL
                if nxt == NIL:
                    break
                nxt_node = self._node(nxt)
                if nxt_node.key is not None and nxt_node.key < key:
                    node = nxt_node
                else:
                    break
        candidate = node.forwards[0] if node.forwards else NIL
        if candidate == NIL:
            return None
        cand = self._node(candidate)
        return candidate if cand.key == key else None

    def _find(self, key: str) -> Optional[bytes]:
        return self.get(key)

    def items(self) -> Iterator[Tuple[str, Optional[bytes], bool]]:
        """Ordered (key, value, deleted) triples — the flush iterator."""
        node = self._node(self._head_id)
        nxt = node.forwards[0] if node.forwards else NIL
        while nxt != NIL:
            node = self._node(nxt)
            value = (self.dmo.read(self.owner, node.value_obj)
                     if node.value_obj != NIL else None)
            yield node.key, value, node.deleted
            nxt = node.forwards[0]

    def __len__(self) -> int:
        return self.length
