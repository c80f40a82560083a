"""The idle pool: finished instances parked per function for hot reuse.

After an invocation finishes, "its UC can either be destroyed or cached
for future invocations of that function on a new set of arguments" (§4)
— cached UCs serve the *hot* path.  Idle UCs are transient by design:
"UCs for function invocations are transient and can always be killed by
the system without impacting forward progress", so the OOM daemon
reclaims them whenever free memory drops below the configured
threshold (§6 "Memory Management"): functions in the order of the
pool's :class:`~repro.seuss.policy.CachePolicy` (least recently used
first by default), each function's oldest UC first.  The OpenWhisk
Linux invoker keeps its idle containers per function the same way, so
one class serves both node types: a SEUSS node's ``uc_cache`` and a
Linux node's ``idle_pool``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.seuss.policy import CachePolicy, LRUPolicy
from repro.trace import tracer_for


@dataclass
class IdlePoolStats:
    hot_hits: int = 0
    reclaimed: int = 0
    dropped: int = 0


class IdlePool:
    """Idle instances (UCs or containers) keyed by function.

    Each function's idle instances are a plain list, oldest first.  A
    hot pop takes the newest (the cache-warm one) and eviction the
    oldest of the policy's victim function, so reuse and the OOM daemon
    consume opposite ends.  (On 64-bit CPython a one-item list is 88
    bytes and a ``deque`` 760 whatever it holds; most functions hold
    one.)  The policy (an :class:`LRUPolicy` unless one is passed)
    orders eviction across functions and tracks exactly the functions
    with idle instances.  ``per_function_limit=None`` sets no limit.

    What :meth:`pop` and :meth:`evict` hand back is the caller's; what
    :meth:`reclaim_pages`, :meth:`drop_function` and :meth:`clear`
    remove, the pool destroys (``instance.destroy()``, which returns
    the pages it frees).  ``unit`` names the trace records:
    ``<unit>_cache.cached``, ``.hot_hit``, ``.reclaimed`` and
    ``.dropped`` instants and the ``<unit>_cache.idle_<unit>s`` gauge.
    """

    def __init__(
        self,
        per_function_limit: Optional[int] = 512,
        policy: Optional[CachePolicy] = None,
        env=None,
        unit: str = "uc",
    ) -> None:
        #: The node's environment, whose tracer records this pool
        #: (``None``: the active tracer).
        self.env = env
        self._per_function_limit = (
            float("inf") if per_function_limit is None else per_function_limit
        )
        self._buckets: Dict[str, List[Any]] = {}
        self._count = 0
        self._policy: CachePolicy = policy or LRUPolicy()
        self.stats = IdlePoolStats()
        self._prefix = f"{unit}_cache."
        self._gauge = f"{unit}_cache.idle_{unit}s"

    def __len__(self) -> int:
        return self._count

    def function_count(self, key: str) -> int:
        return len(self._buckets.get(key, ()))

    def items(self) -> List[Tuple[str, Tuple[Any, ...]]]:
        """``(key, instances)`` per function, its instances oldest first."""
        return [(key, tuple(bucket)) for key, bucket in self._buckets.items()]

    # -- hot-path operations -------------------------------------------------
    def put(self, key: str, instance, tracer=None) -> bool:
        """Park an idle instance for hot reuse; False if over the limit.

        ``tracer`` is the request's, which its caller resolved once
        (``None``: this pool's environment's)."""
        # The limit is tested before a bucket is made: a rejected put
        # leaves no empty bucket behind for eviction to find.
        bucket = self._buckets.get(key)
        if bucket is None:
            if self._per_function_limit < 1:
                return False
            bucket = self._buckets[key] = []
        elif len(bucket) >= self._per_function_limit:
            return False
        bucket.append(instance)
        self._count += 1
        self._policy.on_insert(key)
        if tracer is None:
            tracer = tracer_for(self.env)
        if tracer.enabled:
            tracer.event(self._prefix + "cached", key=key)
            tracer.gauge(self._gauge, self._count)
        return True

    def pop(self, key: str, tracer=None):
        """Take an idle instance of ``key``, if any (the hot path);
        ``tracer`` as for :meth:`put`."""
        bucket = self._buckets.get(key)
        if not bucket:
            return None
        instance = bucket.pop()
        self._count -= 1
        if not bucket:
            del self._buckets[key]
            # The function left the pool by being *used*, not evicted;
            # keep policy eviction counts clean.
            self._policy.on_remove(key, evicted=False)
        else:
            self._policy.on_hit(key)
        self.stats.hot_hits += 1
        if tracer is None:
            tracer = tracer_for(self.env)
        if tracer.enabled:
            tracer.event(self._prefix + "hot_hit", key=key)
            tracer.gauge(self._gauge, self._count)
        return instance

    # -- eviction ------------------------------------------------------------
    def evict(self):
        """Remove and return the oldest instance of the policy's victim
        function; ``None`` when the pool is empty."""
        if not self._count:
            return None
        key = self._policy.victim()
        bucket = self._buckets[key]
        instance = bucket.pop(0)
        self._count -= 1
        if not bucket:
            del self._buckets[key]
            self._policy.on_remove(key)
        self.stats.reclaimed += 1
        tracer = tracer_for(self.env)
        if tracer.enabled:
            tracer.event(self._prefix + "reclaimed", key=key)
            tracer.gauge(self._gauge, self._count)
        return instance

    def reclaim_pages(self, pages_needed: int) -> int:
        """OOM-daemon hook: destroy evicted instances until enough pages
        free; returns the pages actually freed."""
        freed = 0
        while freed < pages_needed and self._count:
            freed += self.evict().destroy()
        return freed

    def drop_function(self, key: str) -> int:
        """Destroy every idle instance of one function (pre-eviction hook)."""
        bucket = self._buckets.pop(key, None)
        if not bucket:
            return 0
        # Dropped on behalf of a snapshot-cache eviction (or a clear);
        # the owning cache's policy accounts the eviction.
        self._policy.on_remove(key, evicted=False)
        for instance in bucket:
            instance.destroy()
        dropped = len(bucket)
        self._count -= dropped
        self.stats.dropped += dropped
        tracer = tracer_for(self.env)
        if tracer.enabled:
            tracer.event(self._prefix + "dropped", key=key, count=dropped)
            tracer.gauge(self._gauge, self._count)
        return dropped

    def clear(self) -> int:
        """Destroy all idle instances; returns how many were destroyed."""
        total = 0
        for key in list(self._buckets):
            total += self.drop_function(key)
        return total
