"""Distributed memory objects (§3.3).

A DMO is a chunk of memory owned by exactly one actor, resident on exactly
one side (NIC or host) at any time.  Data structures built on DMOs index by
*object ID* rather than pointer, giving the level of indirection that lets
iPipe relocate objects during actor migration without touching the actor's
logical state (Figure 12).

Functionally, each object carries a Python value (``data``); the declared
``size`` drives timing (DMA transfer costs during migration) and region
accounting (allocation fails once the actor's DRAM region is exhausted).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional

from .actor import Location

_object_ids = itertools.count(1)


class DmoError(Exception):
    """Illegal DMO operation (bad owner, missing object, region overflow)."""


@dataclass(slots=True)
class Dmo:
    """One distributed memory object (an object-table entry + its data)."""

    object_id: int
    actor: str
    size: int
    start_addr: int
    location: Location
    data: Any = None


class ObjectTable:
    """Per-side object table: object ID → entry (Figure 12-a)."""

    def __init__(self, location: Location):
        self.location = location
        self._objects: Dict[int, Dmo] = {}

    def insert(self, obj: Dmo) -> None:
        self._objects[obj.object_id] = obj

    def remove(self, object_id: int) -> Dmo:
        try:
            return self._objects.pop(object_id)
        except KeyError:
            raise DmoError(f"object {object_id} not on {self.location.value}") from None

    def get(self, object_id: int) -> Optional[Dmo]:
        return self._objects.get(object_id)

    def owned_by(self, actor: str) -> Iterable[Dmo]:
        return [o for o in self._objects.values() if o.actor == actor]

    def objects(self) -> Iterable[Dmo]:
        """All live entries (introspection; used by the DMO monitor)."""
        return list(self._objects.values())

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._objects


class DmoManager:
    """Allocation, access checking and migration of DMOs.

    One manager spans both sides; it owns the NIC-side and host-side object
    tables and the per-actor NIC DRAM regions.  Access checks implement the
    paging-based isolation of §3.4: an actor touching another actor's
    object traps into the runtime and is denied.
    """

    def __init__(self, nic_dram=None, region_bytes: int = 64 << 20):
        self.tables = {
            Location.NIC: ObjectTable(Location.NIC),
            Location.HOST: ObjectTable(Location.HOST),
        }
        self._nic_dram = nic_dram
        self._region_bytes = region_bytes
        self._regions: Dict[str, Any] = {}
        self.denied_accesses = 0
        self.translations = 0
        #: TenantPlane (docs/TENANCY.md): owning tenant per region, byte
        #: budgets and live allocation per tenant, and a counter of
        #: denials that crossed a tenant boundary (a strict subset of
        #: ``denied_accesses``; the TenantMonitor requires it to be 0).
        self._tenant_of: Dict[str, str] = {}
        self._tenant_budget: Dict[str, int] = {}
        self._tenant_used: Dict[str, int] = {}
        self.cross_tenant_denials = 0
        #: (actor, its tenant, owner, owner's tenant) of the most recent
        #: cross-tenant denial, so the TenantMonitor can name offenders.
        self.last_cross_tenant: Optional[tuple] = None

    @property
    def regions(self) -> Dict[str, Any]:
        """Per-actor memory regions (read-only view for the DMO monitor)."""
        return self._regions

    # -- tenancy -----------------------------------------------------------
    def tenant_of(self, actor: str) -> str:
        """Owning tenant of an actor's region ("" = implicit tenant)."""
        return self._tenant_of.get(actor, "")

    def set_tenant_budget(self, tenant: str, nbytes: int) -> None:
        """Cap a tenant's total live DMO bytes across all its regions."""
        self._tenant_budget[tenant] = nbytes

    def set_tenant(self, actor: str, tenant: str) -> None:
        """(Re-)tag an actor's region with its owning tenant.

        The scenario builder assigns tenants *after* app construction
        (init handlers may already have allocated objects), so any live
        bytes move between the usage ledgers with the tag.
        """
        old = self._tenant_of.get(actor, "")
        if old == tenant:
            return
        owned = sum(obj.size for table in self.tables.values()
                    for obj in table.owned_by(actor))
        if old and owned:
            self._tenant_used[old] = self._tenant_used.get(old, 0) - owned
        if tenant:
            self._tenant_of[actor] = tenant
            if owned:
                self._tenant_used[tenant] = \
                    self._tenant_used.get(tenant, 0) + owned
        else:
            self._tenant_of.pop(actor, None)

    def tenant_bytes_used(self, tenant: str) -> int:
        return self._tenant_used.get(tenant, 0)

    # -- actor region lifecycle (§3.3 "large equal-sized chunks") ----------
    def create_region(self, actor: str, nbytes: Optional[int] = None,
                      tenant: str = "") -> None:
        nbytes = nbytes or self._region_bytes
        if self._nic_dram is not None:
            region = self._nic_dram.create_region(actor, nbytes)
        else:
            from ..nic.memory import MemoryRegion
            region = MemoryRegion(actor, nbytes)
        self._regions[actor] = region
        if tenant:
            self._tenant_of[actor] = tenant

    def destroy_region(self, actor: str) -> None:
        self._regions.pop(actor, None)
        if self._nic_dram is not None:
            self._nic_dram.destroy_region(actor)
        tenant = self._tenant_of.pop(actor, "")
        for table in self.tables.values():
            for obj in list(table.owned_by(actor)):
                table.remove(obj.object_id)
                if tenant:
                    self._tenant_used[tenant] = \
                        self._tenant_used.get(tenant, 0) - obj.size

    # -- Table 4 DMO API -------------------------------------------------------
    def malloc(self, actor: str, size: int, data: Any = None,
               location: Location = Location.NIC) -> Dmo:
        """dmo_malloc: allocate an object inside the actor's region."""
        region = self._regions.get(actor)
        if region is None:
            raise DmoError(f"actor {actor!r} has no registered memory region")
        tenant = self._tenant_of.get(actor, "")
        budget = self._tenant_budget.get(tenant) if tenant else None
        if budget is not None \
                and self._tenant_used.get(tenant, 0) + size > budget:
            raise DmoError(
                f"tenant {tenant!r} DMO budget exhausted "
                f"({self._tenant_used.get(tenant, 0)}+{size}/{budget}B)")
        addr = region.allocate(size)
        if addr is None:
            raise DmoError(
                f"region of {actor!r} exhausted ({region.used}/{region.capacity}B)")
        obj = Dmo(object_id=next(_object_ids), actor=actor, size=size,
                  start_addr=addr, location=location, data=data)
        self.tables[location].insert(obj)
        if tenant:
            self._tenant_used[tenant] = \
                self._tenant_used.get(tenant, 0) + size
        return obj

    def free(self, actor: str, object_id: int) -> None:
        """dmo_free: release the object and its region space."""
        obj = self._checked(actor, object_id)
        self.tables[obj.location].remove(object_id)
        region = self._regions.get(actor)
        if region is not None:
            region.free(obj.size)
        tenant = self._tenant_of.get(actor, "")
        if tenant:
            self._tenant_used[tenant] = \
                self._tenant_used.get(tenant, 0) - obj.size

    def read(self, actor: str, object_id: int) -> Any:
        """Access an object's data (with ownership check + translation)."""
        return self._checked(actor, object_id).data

    def write(self, actor: str, object_id: int, data: Any) -> None:
        self._checked(actor, object_id).data = data

    def memset(self, actor: str, object_id: int, value: Any) -> None:
        """dmo_memset equivalent: overwrite the object's contents."""
        self.write(actor, object_id, value)

    def memcpy(self, actor: str, dst_id: int, src_id: int) -> None:
        """dmo_memcpy: copy data between two objects of the same actor."""
        src = self._checked(actor, src_id)
        dst = self._checked(actor, dst_id)
        dst.data = src.data

    def memmove(self, actor: str, dst_id: int, src_id: int) -> None:
        """dmo_memmove: move data (source is cleared)."""
        self.memcpy(actor, dst_id, src_id)
        self._checked(actor, src_id).data = None

    def migrate(self, actor: str, object_id: int, to: Location) -> Dmo:
        """dmo_migrate: relocate one object to the other side."""
        obj = self._checked(actor, object_id)
        if obj.location is to:
            return obj
        self.tables[obj.location].remove(object_id)
        obj.location = to
        self.tables[to].insert(obj)
        return obj

    def migrate_all(self, actor: str, to: Location) -> int:
        """Move every object of an actor; returns total bytes moved.

        Used by phase 3 of actor migration — the byte count prices the DMA
        transfer (Figure 18 shows this phase dominating at ~68%).
        """
        source = (Location.NIC if to is Location.HOST else Location.HOST)
        moved = 0
        for obj in list(self.tables[source].owned_by(actor)):
            self.migrate(actor, obj.object_id, to)
            moved += obj.size
        return moved

    def bytes_owned(self, actor: str, location: Optional[Location] = None) -> int:
        locations = [location] if location else list(self.tables)
        return sum(o.size for loc in locations
                   for o in self.tables[loc].owned_by(actor))

    # -- internals ---------------------------------------------------------------
    def _checked(self, actor: str, object_id: int) -> Dmo:
        self.translations += 1
        for table in self.tables.values():
            obj = table.get(object_id)
            if obj is not None:
                if obj.actor != actor:
                    self.denied_accesses += 1
                    mine = self._tenant_of.get(actor, "")
                    theirs = self._tenant_of.get(obj.actor, "")
                    if mine != theirs:
                        # the §3.4 trap doubles as the tenant boundary:
                        # the access never proceeds, and the monitor
                        # flags the attempt itself as a violation
                        self.cross_tenant_denials += 1
                        self.last_cross_tenant = (actor, mine,
                                                  obj.actor, theirs)
                        raise DmoError(
                            f"actor {actor!r} (tenant {mine or 'implicit'!r})"
                            f" denied cross-tenant access to object "
                            f"{object_id} owned by {obj.actor!r} "
                            f"(tenant {theirs or 'implicit'!r})")
                    raise DmoError(
                        f"actor {actor!r} denied access to object {object_id} "
                        f"owned by {obj.actor!r}")
                return obj
        raise DmoError(f"object {object_id} does not exist")
