"""The consistent-hash ring of the cluster tier: the proxy keeps its
healthy members on one and hands it out, and a client places its
flows on it (so a client imports it without the proxy)."""

from __future__ import annotations

import bisect
import hashlib

__all__ = ["HashRing", "RING_REPLICAS"]

#: Virtual nodes per member on the hash ring.
RING_REPLICAS = 64


def _ring_hash(data: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest(),
        "big",
    )


class HashRing:
    """Consistent hashing with virtual nodes.

    Each member is placed at ``replicas`` pseudo-random points on a
    64-bit ring; :meth:`preference` walks clockwise from a key's hash
    and yields members in first-encounter order, so a caller can skip
    unhealthy members and still get stable, minimal re-mapping."""

    def __init__(self, members=(), replicas: int = RING_REPLICAS) -> None:
        self.replicas = replicas
        self._points: list[int] = []
        self._owners: dict[int, str] = {}
        self._members: set[str] = set()
        for name in members:
            self.add(name)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, name: str) -> bool:
        return name in self._members

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(sorted(self._members))

    def add(self, name: str) -> None:
        if name in self._members:
            return
        self._members.add(name)
        for i in range(self.replicas):
            point = _ring_hash(f"{name}#{i}")
            # blake2b collisions across 64 bits are effectively
            # impossible; first owner keeps a contested point.
            if point not in self._owners:
                self._owners[point] = name
                bisect.insort(self._points, point)

    def remove(self, name: str) -> None:
        if name not in self._members:
            return
        self._members.discard(name)
        stale = [p for p, n in self._owners.items() if n == name]
        for point in stale:
            del self._owners[point]
        stale_set = set(stale)
        self._points = [p for p in self._points if p not in stale_set]

    def preference(self, key: "str | int") -> list[str]:
        """Every member, ordered by ring walk from ``key``'s hash, or
        from ``key`` itself, a point of the 64-bit ring (a caller that
        keeps a point per flow hashes nothing per flow)."""
        if not self._points:
            return []
        point = _ring_hash(key) if isinstance(key, str) else key
        start = bisect.bisect(self._points, point)
        seen: list[str] = []
        seen_set: set[str] = set()
        count = len(self._points)
        for i in range(count):
            owner = self._owners[self._points[(start + i) % count]]
            if owner not in seen_set:
                seen_set.add(owner)
                seen.append(owner)
                if len(seen) == len(self._members):
                    break
        return seen

    def lookup(self, key: str) -> str | None:
        order = self.preference(key)
        return order[0] if order else None
