"""Platform-enforced quotas and rate limits.

OpenWhisk throttles per-namespace invocations (a per-minute rate limit
and a concurrent-invocations limit); the paper *disables* them for
every experiment ("we have disabled all platform-enforced quotas and
rate limits in OpenWhisk"), so :data:`DISABLED` is the default
configuration.  The enforcement exists so users of this library can
study platform behaviour with production guard rails on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from repro.errors import ConfigError

#: One minute, in simulation time.
MINUTE_MS = 60_000.0


@dataclass(frozen=True)
class QuotaConfig:
    """Per-namespace limits (None = unlimited)."""

    invocations_per_minute: Optional[int] = None
    concurrent_invocations: Optional[int] = None

    def __post_init__(self) -> None:
        for name, value in (
            ("invocations_per_minute", self.invocations_per_minute),
            ("concurrent_invocations", self.concurrent_invocations),
        ):
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1 or None, got {value}")

    @property
    def enabled(self) -> bool:
        return (
            self.invocations_per_minute is not None
            or self.concurrent_invocations is not None
        )


#: The paper's configuration: no quotas, no rate limits.
DISABLED = QuotaConfig()

#: OpenWhisk's stock defaults, for studies with guard rails on.
OPENWHISK_DEFAULTS = QuotaConfig(
    invocations_per_minute=60, concurrent_invocations=30
)


@dataclass
class QuotaStats:
    admitted: int = 0
    rate_rejections: int = 0
    concurrency_rejections: int = 0


class QuotaEnforcer:
    """Sliding-window rate limiting + concurrency caps per namespace."""

    def __init__(self, config: QuotaConfig = DISABLED) -> None:
        self.config = config
        #: ``config.enabled``, read once: the config is frozen.
        self._enabled = config.enabled
        self._windows: Dict[str, Deque[float]] = {}
        self._running: Dict[str, int] = {}
        self.stats = QuotaStats()

    def try_admit(self, namespace: str, now_ms: float) -> Tuple[bool, str]:
        """Admit or reject one invocation; returns (admitted, reason)."""
        if not self._enabled:
            self.stats.admitted += 1
            return True, ""
        limit = self.config.concurrent_invocations
        if limit is not None and self._running.get(namespace, 0) >= limit:
            self.stats.concurrency_rejections += 1
            return False, (
                f"namespace {namespace!r} exceeded {limit} concurrent "
                "invocations"
            )
        per_minute = self.config.invocations_per_minute
        if per_minute is not None:
            window = self._windows.setdefault(namespace, deque())
            while window and window[0] <= now_ms - MINUTE_MS:
                window.popleft()
            if len(window) >= per_minute:
                self.stats.rate_rejections += 1
                return False, (
                    f"namespace {namespace!r} exceeded {per_minute} "
                    "invocations per minute"
                )
            window.append(now_ms)
        self._running[namespace] = self._running.get(namespace, 0) + 1
        self.stats.admitted += 1
        return True, ""

    def release(self, namespace: str) -> None:
        """Mark one admitted invocation as finished."""
        if not self._enabled:
            return
        current = self._running.get(namespace, 0)
        if current <= 0:
            raise ConfigError(f"release underflow for namespace {namespace!r}")
        self._running[namespace] = current - 1

    def in_flight(self, namespace: str) -> int:
        return self._running.get(namespace, 0)
