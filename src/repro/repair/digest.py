"""Range digests and the per-peer shared views gossip compares.

Anti-entropy needs to compare replica state without shipping it.  A
*node digest* hashes exactly what the convergence theory says two
copies with compatible histories must agree on at quiescence -- the
key range, the entries, the B-link right pointer, and the replication
membership -- and deliberately nothing that is allowed to differ
transiently (navigation hints, protocol scratch, the home pid).

The same formula is applied to a :class:`~repro.core.node.NodeCopy`
and to a mirror's stored :class:`~repro.core.node.NodeSnapshot`, so a
fresh mirror hashes equal to its home leaf by construction.

Maintenance is O(changed), not O(store).  :class:`DigestIndex` keeps
one table per processor: each stored copy's ``(object, mut)`` stamp,
the peers it is shared with, and its digest.  ``NodeCopy.mut`` is
bumped by every write to anything a digest or the sharing reads
(entries, range, right link, membership, ``retired``), so a copy whose
stamp has not moved is neither re-classified nor re-hashed.  Beside
the table, one :class:`SharedView` per (processor, peer) holds the
rows the pair replicates in common and per-bucket roll-ups.  A
roll-up is a sum mod 2**64 of one blake2b term per row, so it is
order-independent and a changed row swaps its old term for its new
one in O(1) -- the order-independence that lets replicas compare
state regardless of the order updates arrived in.  All of it is
volatile: it dies with a crash, like everything else on a processor.

Hashes use :func:`hashlib.blake2b` over the ``repr`` of a canonical
tuple -- process-stable and seed-independent, unlike Python's
randomized ``hash()``.
"""

from __future__ import annotations

import hashlib
from itertools import chain, compress
from operator import attrgetter, is_not, ne, or_
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.core.node import NodeCopy, NodeSnapshot

#: Wire-size estimate (bytes) of one digest, for the byte accounting.
DIGEST_BYTES = 8

#: Roll-ups are sums modulo 2**64.
MASK = (1 << 64) - 1

_MUT = attrgetter("mut")

#: Comparison class by role: a home's leaf row ("L") and the holder's
#: mirror row ("M") describe the same replicated state, so they must
#: hash into the same class.
CMP = {"C": "C", "L": "M", "M": "M"}


def hash_parts(parts: tuple) -> int:
    """64-bit stable hash of a canonical tuple."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def copy_digest(copy: "NodeCopy") -> int:
    """Digest of a live node copy's convergent state."""
    keys = copy.keys()
    return hash_parts(
        (
            copy.range.low,
            copy.range.high,
            keys,
            tuple(map(copy.lookup, keys)),
            copy.right_id,
            tuple(sorted(copy.copy_versions.items())),
        )
    )


def snapshot_digest(snap: "NodeSnapshot") -> int:
    """Digest of a snapshot; equals :func:`copy_digest` of its source."""
    return hash_parts(
        (
            snap.low,
            snap.high,
            snap.keys,
            snap.payloads,
            snap.right_id,
            tuple(sorted(snap.copy_versions)),
        )
    )


def row_term(node_id: int, role: str, digest: int) -> int:
    """One row's additive share of its bucket's roll-up."""
    return hash_parts((node_id, CMP[role], digest))


class SharedView:
    """What one processor replicates in common with one peer.

    ``rows`` maps node id -> ``(role, digest, level, low)`` with role
    ``"C"`` (a replicated copy listing the peer as member), ``"L"`` (an
    own single-copy leaf whose mirror targets include the peer) or
    ``"M"`` (a held mirror whose home is the peer); an M row overrides
    a C or L row for the same node id, whose id is then in ``hidden``.
    ``buckets[b]`` sums :func:`row_term` over the rows with ``node_id
    % len(buckets) == b``; ``top`` sums the buckets.
    """

    __slots__ = ("rows", "hidden", "buckets")

    def __init__(self, buckets: int) -> None:
        self.rows: dict[int, tuple[str, int, int, Any]] = {}
        self.hidden: set[int] = set()
        self.buckets = [0] * buckets

    @property
    def top(self) -> int:
        return sum(self.buckets) & MASK

    def _shift(self, node_id: int, term: int) -> None:
        buckets = self.buckets
        index = node_id % len(buckets)
        buckets[index] = (buckets[index] + term) & MASK


class _CopyRow:
    """A stored copy as the table last saw it.

    ``peers`` are the processors whose views hold ``row``; ``row`` is
    None when there are none (an unshared copy is not hashed).
    ``entries`` is the entry count of a non-retired leaf, else None.
    """

    __slots__ = ("copy", "mut", "peers", "row", "term", "entries")

    def __init__(self, copy: "NodeCopy") -> None:
        self.copy = copy
        self.mut = -1
        self.peers: tuple[int, ...] = ()
        self.row: tuple | None = None
        self.term = 0
        self.entries: int | None = None


class _Table:
    """One processor's digest state: copies, mirrors, views by peer."""

    __slots__ = ("copies", "seen", "stamps", "mirrors", "views")

    def __init__(self) -> None:
        self.copies: dict[int, _CopyRow] = {}
        #: The node store's copies and their ``mut`` at the last sync.
        self.seen: list["NodeCopy"] = []
        self.stamps: list[int] = []
        #: node_id -> ((home, snapshot) store entry, row, term)
        self.mirrors: dict[int, tuple[tuple, tuple, int]] = {}
        self.views: dict[int, SharedView] = {}


class DigestIndex:
    """Per-processor digest tables and per-peer shared views.

    ``mirror_targets(home_pid, node_id)`` names the peers an own
    single-copy leaf is mirrored at (None: no mirrors).  A processor's
    table and views are built at its first sync and kept current from
    then on; a placement change must :meth:`reset` the index because
    it moves those peers.
    """

    def __init__(
        self,
        buckets: int = 8,
        mirror_targets: Callable[[int, int], tuple[int, ...]] | None = None,
    ) -> None:
        self.buckets = buckets
        self._mirror_targets = mirror_targets
        self._tables: dict[int, _Table] = {}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def view(
        self,
        pid: int,
        peer: int,
        store: dict[int, "NodeCopy"],
        mirrors: dict[int, tuple] | None,
    ) -> SharedView:
        """``pid``'s view shared with ``peer``, brought up to date with
        its node store and mirror store."""
        table = self._table(pid)
        self._sync(table, pid, store, mirrors or {})
        return self._view(table, peer)

    def refresh(self, pid: int, copy: "NodeCopy") -> _CopyRow:
        """Bring one stored copy's row up to date (O(1) if unchanged)."""
        table = self._table(pid)
        row = table.copies.get(copy.node_id)
        if row is None or row.copy is not copy or row.mut != copy.mut:
            row = self._put(table, pid, copy, row)
        return row

    def node_digest(self, pid: int, copy: "NodeCopy") -> int:
        """Digest of a copy stored at ``pid``, through the table."""
        row = self.refresh(pid, copy).row
        return copy_digest(copy) if row is None else row[1]

    def leaf_entry_estimate(self, live_ids: set[int] | None = None) -> int | None:
        """Total leaf entries per the tables; None if they hold no leaf.

        The anti-entropy rounds already keep every stored copy's row
        current, so the tables double as a free load measurement
        (digest-driven rebalancing): sum the per-leaf entry counts,
        deduplicating node ids across processors.  A row leaves its
        table when a later sync finds its copy gone from the store, so
        until then ``live_ids`` restricts the sum to the logical
        tree's current leaves.  Counts refresh at gossip cadence (or
        on an explicit :meth:`refresh`), so the estimate can lag live
        mutations by up to one repair period, but it is exact at
        quiescence, which is when the shard balancer reads it.
        """
        counts: dict[int, int] = {}
        for table in self._tables.values():
            for node_id, row in table.copies.items():
                entries = row.entries
                if entries is None:
                    continue
                if live_ids is not None and node_id not in live_ids:
                    continue
                counts[node_id] = max(counts.get(node_id, 0), entries)
        if not counts:
            return None
        return sum(counts.values())

    def reset(self, pid: int | None = None) -> None:
        """Drop one processor's state (crash-stop: volatile), or every
        processor's (the mirror placement changed)."""
        if pid is None:
            self._tables.clear()
        else:
            self._tables.pop(pid, None)

    # ------------------------------------------------------------------
    # table maintenance
    # ------------------------------------------------------------------
    def _table(self, pid: int) -> _Table:
        table = self._tables.get(pid)
        if table is None:
            table = self._tables[pid] = _Table()
        return table

    def _view(self, table: _Table, peer: int) -> SharedView:
        view = table.views.get(peer)
        if view is None:
            view = table.views[peer] = SharedView(self.buckets)
        return view

    def _sync(
        self,
        table: _Table,
        pid: int,
        store: dict[int, "NodeCopy"],
        mirrors: dict[int, tuple],
    ) -> None:
        copies = table.copies
        # The store as the last sync saw it, position by position: a
        # copy that is the same object with the same stamp there is
        # current, and that comparison runs in C.  Only the flagged
        # positions and the new tail get the per-row check.
        current = list(store.values())
        stamps = list(map(_MUT, current))
        seen = len(table.seen)
        moved = compress(
            current,
            map(or_, map(is_not, current, table.seen), map(ne, stamps, table.stamps)),
        )
        for copy in chain(moved, current[seen:]):
            row = copies.get(copy.node_id)
            if row is None or row.copy is not copy or row.mut != copy.mut:
                self._put(table, pid, copy, row)
        table.seen, table.stamps = current, stamps
        if len(copies) > len(store):
            for node_id in [nid for nid in copies if nid not in store]:
                self._move(table, node_id, copies.pop(node_id), (), None, 0)
        held = table.mirrors
        for node_id, entry in mirrors.items():
            old = held.get(node_id)
            if old is None or old[0] is not entry:
                self._put_mirror(table, node_id, entry, old)
        if len(held) > len(mirrors):
            for node_id in [nid for nid in held if nid not in mirrors]:
                self._retract_mirror(table, node_id, held.pop(node_id))

    def _put(
        self, table: _Table, pid: int, copy: "NodeCopy", row: _CopyRow | None
    ) -> _CopyRow:
        """Re-classify and re-hash a copy whose stamp moved."""
        node_id = copy.node_id
        members = copy.copy_versions
        peers: tuple[int, ...] = ()
        role = "C"
        if not copy.retired:
            if len(members) > 1:
                peers = tuple(p for p in members if p != pid)
            elif (
                self._mirror_targets is not None
                and copy.is_leaf
                and len(members) == 1
            ):
                peers = self._mirror_targets(pid, node_id)
                role = "L"
        digest = shared = None
        if peers:
            digest = copy_digest(copy)
            shared = (role, digest, copy.level, copy.range.low)
        if row is None:
            row = table.copies[node_id] = _CopyRow(copy)
        row.copy = copy
        row.mut = copy.mut
        row.entries = (
            copy.num_entries if copy.is_leaf and not copy.retired else None
        )
        if row.peers != peers or row.row != shared:
            term = row_term(node_id, role, digest) if peers else 0
            self._move(table, node_id, row, peers, shared, term)
            row.peers, row.row, row.term = peers, shared, term
        return row

    def _move(
        self,
        table: _Table,
        node_id: int,
        row: _CopyRow,
        peers: tuple[int, ...],
        shared: tuple | None,
        term: int,
    ) -> None:
        """Replace a copy's row (as ``row`` still holds it) with
        ``shared`` in the views of ``peers``."""
        views = table.views
        index = node_id % self.buckets
        old = row.term
        for peer in row.peers:
            view = views[peer]
            hidden = node_id in view.hidden
            buckets = view.buckets
            if peer in peers:
                if not hidden:
                    view.rows[node_id] = shared
                    buckets[index] = (buckets[index] - old + term) & MASK
            elif hidden:
                view.hidden.discard(node_id)
            else:
                del view.rows[node_id]
                buckets[index] = (buckets[index] - old) & MASK
        for peer in peers:
            if peer not in row.peers:
                self._show(self._view(table, peer), node_id, shared, term)

    @staticmethod
    def _show(view: SharedView, node_id: int, shared: tuple, term: int) -> None:
        current = view.rows.get(node_id)
        if current is not None and current[0] == "M":
            view.hidden.add(node_id)
            return
        view.rows[node_id] = shared
        view._shift(node_id, term)

    def _put_mirror(
        self, table: _Table, node_id: int, entry: tuple, old: tuple | None
    ) -> None:
        if old is not None:
            self._retract_mirror(table, node_id, old)
        home, snap = entry
        digest = snapshot_digest(snap)
        shared = ("M", digest, snap.level, snap.low)
        term = row_term(node_id, "M", digest)
        table.mirrors[node_id] = (entry, shared, term)
        self._show_mirror(table, self._view(table, home), node_id, shared, term)

    @staticmethod
    def _show_mirror(
        table: _Table, view: SharedView, node_id: int, shared: tuple, term: int
    ) -> None:
        if node_id in view.rows:
            # A C or L row for the same node: the mirror row overrides it.
            view.hidden.add(node_id)
            view._shift(node_id, -table.copies[node_id].term)
        view.rows[node_id] = shared
        view._shift(node_id, term)

    def _retract_mirror(self, table: _Table, node_id: int, old: tuple) -> None:
        view = table.views[old[0][0]]
        del view.rows[node_id]
        view._shift(node_id, -old[2])
        if node_id in view.hidden:
            view.hidden.discard(node_id)
            row = table.copies[node_id]
            view.rows[node_id] = row.row
            view._shift(node_id, row.term)
