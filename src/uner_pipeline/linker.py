"""Knowledge-base class lookup for link targets.

Each unique target resolves to an ordered list of ontology classes, either
from a persistent TSV cache or through a SPARQL endpoint (batched VALUES
queries with single-entity fallback, retries, and client-side rate
limiting). Response order is the canonical class order and is frozen into
the cache so reruns are deterministic. Unresolved targets are recorded, not
fatal. The cache can be loaded restricted to one run's targets, for a run
that cannot query and so never rewrites it.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection

from .atomic import atomic_output
from .errors import DataError, QueryError
from .ingest import LINE_BREAKS
from .mapping import iter_tsv

log = logging.getLogger(__name__)

DEFAULT_RESOURCE_BASE = "http://dbpedia.org/resource"
ENDPOINT_ENV_VAR = "UNER_SPARQL_ENDPOINT"

# the client settings' defaults, RunConfig's too; check_settings holds their ranges
CLIENT_DEFAULTS = {"timeout": 30.0, "retries": 3, "batch_size": 50, "rate_limit": 2.0, "concurrency": 1}

# rdf:type lookup for one or many entities per request
QUERY_TEMPLATE = (
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
    "SELECT ?entity ?type WHERE {{ VALUES ?entity {{ {uris} }} ?entity rdf:type ?type }}"
)

_NAMESPACE_PREFIXES = {
    "http://dbpedia.org/ontology/": "dbo:",
    "http://www.w3.org/2002/07/owl#": "owl:",
    "http://www.w3.org/2000/01/rdf-schema#": "rdfs:",
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#": "rdf:",
    "http://schema.org/": "schema:",
    "http://xmlns.com/foaf/0.1/": "foaf:",
    "http://www.wikidata.org/entity/": "wikidata:",
    "http://www.ontologydesignpatterns.org/ont/dul/DUL.owl#": "dul:",
}

# a class name holding one of these would split its cache line or its class field
_CLASS_BREAKS = LINE_BREAKS | {"\t", ","}

# characters emitted verbatim in entity URIs; underscores are reserved as the
# space marker, so literal underscores in a target are percent-encoded
_URI_SAFE = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-.~()!*',"
)


def build_entity_uri(target: str, resource_base: str = DEFAULT_RESOURCE_BASE) -> str:
    """Deterministic entity URI: spaces become underscores, the rest is
    percent-encoded so the URI round-trips to the original target."""
    if not target:
        raise DataError("cannot build an entity URI from an empty target")
    pieces: list[str] = []
    for ch in target:
        if ch == " ":
            pieces.append("_")
        elif ch == "_":
            pieces.append("%5F")
        elif ch in _URI_SAFE:
            pieces.append(ch)
        else:
            pieces.append("".join(f"%{byte:02X}" for byte in ch.encode("utf-8")))
    return f"{resource_base}/{''.join(pieces)}"


def compact_class_name(class_uri: str) -> str:
    """Abbreviate well-known namespaces (dbo:, owl:, ...), else keep the IRI."""
    for namespace, prefix in _NAMESPACE_PREFIXES.items():
        if class_uri.startswith(namespace):
            return prefix + class_uri[len(namespace) :]
    return class_uri


@dataclass
class ClassCatalog:
    """Target -> ordered, duplicate-free list of class names.

    The lists are shared and read-only: targets with the same classes may
    hold the very same list, and a catalog that ``resolve_all`` returns
    shares its lists with the cache. Replace an entry; never mutate one.
    """

    entries: dict[str, list[str]] = field(default_factory=dict)


def load_catalog(
    path: str | Path, keep: Collection[str] | None = None, counters: Counter | None = None
) -> ClassCatalog:
    """Read a ``target<TAB>class1,class2,...`` TSV cache; the class list may be empty.

    With ``keep``, only those targets are stored. Every line is still checked,
    so a malformed or duplicate line anywhere in the file raises. Targets
    whose class fields are equal share one list, and equal class names one
    string, so memory grows with the targets plus the distinct lists and
    names; ``cache_class_lists`` counts the lists.
    """
    # every target seen is a key, for the duplicate check; one outside keep maps to None
    seen: dict[str, list[str] | None] = {}
    lists: dict[str, list[str]] = {}  # class field -> its one list
    names: dict[str, str] = {}  # class name -> its one string
    for line_no, target, classes_field in iter_tsv(path):
        if target in seen:
            raise DataError(f"{path}:{line_no}: duplicate target {target!r}")
        if keep is not None and target not in keep:
            seen[target] = None
            continue
        classes = lists.get(classes_field)
        if classes is None:
            classes = [names.setdefault(c, c) for c in classes_field.split(",") if c]
            lists[classes_field] = classes
        seen[target] = classes
    if counters is not None:
        counters["cache_class_lists"] += len(lists)
    if keep is None:
        return ClassCatalog(seen)
    return ClassCatalog({target: classes for target, classes in seen.items() if classes is not None})


def check_settings(**settings: float) -> None:
    """Raise ValueError for a client setting out of its range; NaN is in none."""
    for name, value in settings.items():
        if name == "timeout":
            ok, wanted = 0 < value < float("inf"), "finite and > 0"
        elif name == "rate_limit":  # 0 is no limit
            ok, wanted = 0 <= value < float("inf"), "finite and >= 0"
        else:  # retries, batch_size and concurrency
            ok, wanted = value >= 1, ">= 1"
        if not ok:
            raise ValueError(f"{name} must be {wanted}, got {value!r}")


def save_catalog(catalog: ClassCatalog, path: str | Path) -> None:
    """Write the cache atomically, targets sorted, class order preserved."""
    with atomic_output(path) as fh:
        fh.write("# target<TAB>comma-separated classes in canonical order\n")
        for target in sorted(catalog.entries):
            fh.write(f"{target}\t{','.join(catalog.entries[target])}\n")


class RateLimiter:
    """Spaces request start times at least 1/per_second apart; thread-safe.

    ``per_second`` is a ``rate_limit`` (``check_settings``). The clock and
    sleep functions are injectable so tests can drive it with virtual time.
    """

    def __init__(self, per_second: float, clock=time.monotonic, sleep=time.sleep):
        check_settings(rate_limit=per_second)
        self._interval = 1.0 / per_second if per_second else 0.0
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._next_free: float | None = None

    def wait(self) -> None:
        if not self._interval:
            return
        with self._lock:
            now = self._clock()
            if self._next_free is None or now >= self._next_free:
                self._next_free = now + self._interval
                delay = 0.0
            else:
                delay = self._next_free - now
                self._next_free += self._interval
        if delay > 0:
            self._sleep(delay)


class SparqlClient:
    """Thin SPARQL-protocol client: POSTs the query, expects JSON results."""

    def __init__(
        self,
        endpoint: str,
        *,
        resource_base: str = DEFAULT_RESOURCE_BASE,
        timeout: float = CLIENT_DEFAULTS["timeout"],
        retries: int = CLIENT_DEFAULTS["retries"],
        batch_size: int = CLIENT_DEFAULTS["batch_size"],
        rate_limit: float = CLIENT_DEFAULTS["rate_limit"],
        concurrency: int = CLIENT_DEFAULTS["concurrency"],
        backoff: float = 0.5,
        session=None,
        sleep=time.sleep,
        clock=time.monotonic,
    ):
        check_settings(timeout=timeout, retries=retries, batch_size=batch_size, concurrency=concurrency)
        self._limiter = RateLimiter(rate_limit, clock=clock, sleep=sleep)  # it checks rate_limit
        self.endpoint = endpoint
        self.resource_base = resource_base
        self.timeout = timeout
        self.retries = retries
        self.batch_size = batch_size
        self.concurrency = concurrency
        self._backoff = backoff
        if session is None:
            import requests  # ~0.1 s to import, and offline and eval runs never send a request

            session = requests.Session()
        self._session = session
        self._sleep = sleep
        self._count_lock = threading.Lock()
        self.request_count = 0

    def _request(self, query: str) -> dict:
        """One query with retries; raises QueryError when attempts run out."""
        last_error: Exception | None = None
        for attempt in range(self.retries):
            self._limiter.wait()
            with self._count_lock:
                self.request_count += 1
            try:
                response = self._session.post(
                    self.endpoint,
                    data={"query": query, "format": "json"},
                    headers={"Accept": "application/sparql-results+json"},
                    timeout=self.timeout,
                )
                if response.status_code != 200:
                    raise QueryError(f"HTTP {response.status_code} from {self.endpoint}")
                payload = response.json()
                if "results" not in payload or "bindings" not in payload["results"]:
                    raise QueryError("response is not a SPARQL JSON result")
                return payload
            except QueryError as exc:
                last_error = exc
            except Exception as exc:  # connection/timeout/JSON errors
                last_error = exc
            if attempt + 1 < self.retries:
                self._sleep(self._backoff * (attempt + 1))
        raise QueryError(f"query failed after {self.retries} attempts: {last_error}")

    def query_batch(self, targets: list[str]) -> dict[str, list[str]]:
        """Ordered, duplicate-free class lists for many targets in one request.

        Every requested target appears in the result; targets without rows map
        to []. Raises QueryError when the request fails after retries.
        """
        uri_to_target = {build_entity_uri(t, self.resource_base): t for t in targets}
        uris = " ".join(f"<{uri}>" for uri in uri_to_target)
        payload = self._request(QUERY_TEMPLATE.format(uris=uris))
        result: dict[str, list[str]] = {t: [] for t in targets}
        for binding in payload["results"]["bindings"]:
            entity = binding.get("entity", {}).get("value")
            value = binding.get("type", {}).get("value")
            if entity is None or value is None:
                continue
            target = uri_to_target.get(entity)
            if target is None:
                continue
            name = compact_class_name(value)
            if name not in result[target]:
                result[target].append(name)
        return result

    def resolve_batch(self, targets: list[str]) -> dict[str, list[str] | None]:
        """Batch query with per-target fallback; None marks unresolved targets."""
        try:
            return dict(self.query_batch(targets))
        except QueryError:
            log.warning("batch of %d targets failed, falling back to single queries", len(targets))
        result: dict[str, list[str] | None] = {}
        for target in targets:
            try:
                result[target] = self.query_batch([target])[target]
            except QueryError:
                result[target] = None
        return result


def resolve_all(
    targets: list[str],
    cache: ClassCatalog,
    client: SparqlClient | None = None,
    counters: Counter | None = None,
) -> ClassCatalog:
    """Resolve every target via the cache, then the endpoint for the misses.

    Returns the catalog restricted to the requested targets, sharing its
    lists with ``cache``; newly queried entries are also added to ``cache``
    (the caller persists it). Cache hits are never re-queried; without a
    client, misses are simply unresolved. A queried class name that a cache
    line cannot hold (empty, or holding a comma, a tab or a line break) is
    dropped and counted as ``unwritable_class``.
    """
    counters = counters if counters is not None else Counter()
    counters["targets"] += len(targets)
    result = ClassCatalog()
    misses: list[str] = []
    for target in targets:
        classes = cache.entries.get(target)
        if classes is not None:
            result.entries[target] = classes
            counters["cache_hits"] += 1
        else:
            misses.append(target)
    if not misses:
        return result
    if client is None:
        counters["unresolved"] += len(misses)
        return result

    from concurrent.futures import ThreadPoolExecutor  # imported here, so only a run that queries pays for it

    batches = [misses[i : i + client.batch_size] for i in range(0, len(misses), client.batch_size)]
    with ThreadPoolExecutor(max_workers=client.concurrency) as executor:
        outcomes = list(executor.map(client.resolve_batch, batches))
    for batch, outcome in zip(batches, outcomes):
        for target in batch:
            classes = outcome.get(target)
            if classes is None:
                counters["unresolved"] += 1
                continue
            writable = [name for name in classes if name and _CLASS_BREAKS.isdisjoint(name)]
            if len(writable) < len(classes):
                counters["unwritable_class"] += len(classes) - len(writable)
            counters["resolved_by_query"] += 1
            counters["cache_class_lists"] += 1
            result.entries[target] = cache.entries[target] = writable
    return result


def endpoint_from_environment(configured: str | None) -> str | None:
    """Environment override for the endpoint; empty string disables it."""
    value = os.environ.get(ENDPOINT_ENV_VAR)
    if value is not None:
        return value or None
    return configured
