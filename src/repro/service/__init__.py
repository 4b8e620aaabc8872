"""Multi-tenant query service layer (DESIGN.md §11).

Public surface:

- :class:`QueryService` / :class:`ServiceConfig` — the shared scheduler +
  catalogs + caches serving many tenant sessions.
- :class:`ServiceCache` / :class:`CacheStats` — result + intermediate
  caching with invalidation on dataset ingest.
- :class:`ServiceStore` — persistent per-dataset ingestion-sketch store
  with JSON round-tripping.
"""

from repro.service.cache import CacheStats, ServiceCache
from repro.service.service import QueryService, ServiceConfig
from repro.service.store import ServiceStore, ingest_token

__all__ = [
    "CacheStats",
    "QueryService",
    "ServiceCache",
    "ServiceConfig",
    "ServiceStore",
    "ingest_token",
]
