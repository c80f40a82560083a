"""Linux compute-node configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.seuss.policy import canonical_policy_name


@dataclass(frozen=True)
class LinuxNodeConfig:
    """Configuration of the stock OpenWhisk Linux node.

    Defaults reproduce the paper's macro-benchmark setup: an 88 GB,
    16-VCPU VM, a container cache capped at 1024 ("the default limit of
    endpoints on a Linux bridge"), container pausing disabled, and the
    stemcell cache disabled (it is re-enabled, at 256, for the burst
    experiments).
    """

    memory_gb: float = 88.0
    cores: int = 16
    #: Ubuntu + Docker daemon + OpenWhisk invoker services.
    system_reserved_mb: float = 2048.0
    #: Maximum containers cached on the node (idle + busy).
    container_cache_limit: int = 1024
    #: Pre-warmed generic Node.js containers (0 = disabled).
    stemcell_pool_size: int = 0
    #: Parallelism of the stemcell repopulation worker.
    stemcell_repopulate_concurrency: int = 4
    #: OpenWhisk pauses idle containers by default; the paper disables
    #: it "resulting in more stable performance under heavy load".
    pause_containers: bool = False
    #: Seed for the node's failure/jitter RNG (determinism).
    seed: int = 0x5E055
    #: Eviction order of the idle-container cache (``seuss/policy.py``
    #: names: "lru" — the seed discipline — "lifo", "hybrid",
    #: "greedy_dual").
    cache_policy: str = "lru"

    def __post_init__(self) -> None:
        if self.memory_gb <= 0:
            raise ConfigError(f"memory_gb must be positive, got {self.memory_gb}")
        if self.cores < 1:
            raise ConfigError(f"cores must be >= 1, got {self.cores}")
        if self.container_cache_limit < 1:
            raise ConfigError("container_cache_limit must be >= 1")
        if self.stemcell_pool_size < 0:
            raise ConfigError("stemcell_pool_size must be >= 0")
        if self.stemcell_pool_size > self.container_cache_limit:
            raise ConfigError("stemcell pool cannot exceed the container cache")
        if self.stemcell_repopulate_concurrency < 1:
            raise ConfigError("stemcell_repopulate_concurrency must be >= 1")
        object.__setattr__(
            self, "cache_policy", canonical_policy_name(self.cache_policy)
        )
