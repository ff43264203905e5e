import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uner_pipeline
from helpers import oracle_load_catalog, target_from_uri
from uner_pipeline import cli
from uner_pipeline.errors import DataError, QueryError
from uner_pipeline.linker import (
    ClassCatalog,
    RateLimiter,
    SparqlClient,
    build_entity_uri,
    check_settings,
    compact_class_name,
    load_catalog,
    resolve_all,
    save_catalog,
)

BASE = "http://dbpedia.org/resource"

# ordered class list served for the worked entity
WORKED_TYPES = [
    "http://dbpedia.org/ontology/Event",
    "http://dbpedia.org/ontology/SoccerTournament",
    "http://dbpedia.org/ontology/SocietalEvent",
    "http://dbpedia.org/ontology/SportsEvent",
    "http://www.w3.org/2002/07/owl#Thing",
]
WORKED_COMPACT = [
    "dbo:Event",
    "dbo:SoccerTournament",
    "dbo:SocietalEvent",
    "dbo:SportsEvent",
    "owl:Thing",
]


class FakeResponse:
    def __init__(self, payload, status_code=200):
        self._payload = payload
        self.status_code = status_code

    def json(self):
        if isinstance(self._payload, Exception):
            raise self._payload
        return self._payload


class FakeSession:
    """Answers SPARQL POSTs from a target->type-URIs table."""

    def __init__(self, types_by_target=None, fail=False):
        self.types_by_target = types_by_target or {}
        self.fail = fail
        self.queries: list[str] = []

    def post(self, url, data=None, headers=None, timeout=None):
        query = data["query"]
        self.queries.append(query)
        if self.fail:
            raise ConnectionError("endpoint down")
        bindings = []
        for target, type_uris in self.types_by_target.items():
            uri = build_entity_uri(target)
            if f"<{uri}>" in query:
                for type_uri in type_uris:
                    bindings.append(
                        {"entity": {"value": uri}, "type": {"value": type_uri}}
                    )
        return FakeResponse({"results": {"bindings": bindings}})


def make_client(session, **kwargs):
    defaults = dict(rate_limit=0, retries=2, sleep=lambda s: None)
    defaults.update(kwargs)
    return SparqlClient("http://fake/sparql", session=session, **defaults)


class TestBuildEntityUri:
    def test_spaces_become_underscores(self):
        assert build_entity_uri("2015 European Games", BASE) == BASE + "/2015_European_Games"

    def test_single_letter(self):
        assert build_entity_uri("A", BASE) == BASE + "/A"

    def test_percent_encoding(self):
        assert build_entity_uri("C++ (language)", BASE) == BASE + "/C%2B%2B_(language)"

    def test_empty_target_rejected(self):
        with pytest.raises(DataError):
            build_entity_uri("", BASE)

    def test_literal_underscore_distinct_from_space(self):
        spaced = build_entity_uri("A B", BASE)
        underscored = build_entity_uri("A_B", BASE)
        assert spaced != underscored
        assert target_from_uri(spaced, BASE) == "A B"
        assert target_from_uri(underscored, BASE) == "A_B"


@settings(max_examples=300, deadline=None)
@given(st.text(min_size=1, max_size=30))
def test_entity_uri_round_trips(target):
    uri = build_entity_uri(target, BASE)
    assert target_from_uri(uri, BASE) == target
    # the path part is plain ASCII
    assert uri[len(BASE) + 1 :].isascii()


def test_compact_class_name():
    assert compact_class_name("http://dbpedia.org/ontology/Event") == "dbo:Event"
    assert compact_class_name("http://www.w3.org/2002/07/owl#Thing") == "owl:Thing"
    assert compact_class_name("http://example.org/x") == "http://example.org/x"


class TestQueryClasses:
    def test_worked_entity_class_list(self):
        session = FakeSession({"2015 European Games": WORKED_TYPES})
        client = make_client(session)
        classes = client.query_batch(["2015 European Games"])
        assert classes == {"2015 European Games": WORKED_COMPACT}

    def test_unknown_page_empty(self):
        client = make_client(FakeSession({}))
        assert client.query_batch(["Nowhere"]) == {"Nowhere": []}

    def test_duplicates_removed_keeping_first(self):
        session = FakeSession({"X": [WORKED_TYPES[0], WORKED_TYPES[0], WORKED_TYPES[1]]})
        client = make_client(session)
        assert client.query_batch(["X"]) == {"X": ["dbo:Event", "dbo:SoccerTournament"]}

    def test_failure_after_retries(self):
        session = FakeSession(fail=True)
        client = make_client(session, retries=3)
        with pytest.raises(QueryError, match="3 attempts"):
            client.query_batch(["X"])
        assert len(session.queries) == 3


class TestResolveAll:
    def test_cache_passthrough_offline(self):
        cache = ClassCatalog({"X": ["dbo:Event"]})
        catalog = resolve_all(["X"], cache, client=None)
        assert catalog.entries == {"X": ["dbo:Event"]}

    def test_empty_targets_zero_queries(self):
        session = FakeSession({"X": WORKED_TYPES})
        client = make_client(session)
        catalog = resolve_all([], ClassCatalog({"X": ["dbo:Event"]}), client)
        assert catalog.entries == {}
        assert session.queries == []

    def test_cache_hit_avoids_queries(self):
        counters = Counter()
        session = FakeSession({"B": WORKED_TYPES, "C": WORKED_TYPES})
        client = make_client(session, batch_size=1)
        cache = ClassCatalog({"A": ["dbo:Event"]})
        catalog = resolve_all(["A", "B", "C"], cache, client, counters)
        # exactly 2 queries: one per uncached target at batch size 1
        assert len(session.queries) == 2
        assert counters["cache_hits"] == 1
        assert counters["resolved_by_query"] == 2
        assert set(catalog.entries) == {"A", "B", "C"}
        assert cache.entries["B"] == WORKED_COMPACT

    def test_offline_miss_recorded_unresolved(self):
        counters = Counter()
        catalog = resolve_all(["Missing"], ClassCatalog(), None, counters)
        assert catalog.entries == {}
        assert counters["unresolved"] == 1

    def test_warm_cache_idempotent(self):
        session = FakeSession({"X": WORKED_TYPES})
        client = make_client(session)
        cache = ClassCatalog()
        first = resolve_all(["X"], cache, client)
        queries_after_first = len(session.queries)
        second = resolve_all(["X"], cache, client)
        assert len(session.queries) == queries_after_first  # zero new requests
        assert second.entries == first.entries

    def test_batch_failure_falls_back_to_singles(self):
        class FlakySession(FakeSession):
            def post(self, url, data=None, headers=None, timeout=None):
                if data["query"].count(f"<{BASE}/") > 1:
                    self.queries.append(data["query"])
                    raise ConnectionError("batch refused")
                return super().post(url, data=data, headers=headers, timeout=timeout)

        session = FlakySession({"X": WORKED_TYPES, "Y": WORKED_TYPES[:1]})
        client = make_client(session, retries=1, batch_size=10)
        counters = Counter()
        catalog = resolve_all(["X", "Y"], ClassCatalog(), client, counters)
        assert catalog.entries["X"] == WORKED_COMPACT
        assert catalog.entries["Y"] == ["dbo:Event"]
        assert counters["resolved_by_query"] == 2
        assert len(session.queries) == 3  # the refused batch, then one query per target

    def test_total_failure_leaves_targets_unresolved(self):
        counters = Counter()
        client = make_client(FakeSession(fail=True), retries=1)
        catalog = resolve_all(["X", "Y"], ClassCatalog(), client, counters)
        assert catalog.entries == {}
        assert counters["unresolved"] == 2

    def test_queried_empty_result_is_covered(self):
        # a successful query with no rows caches an empty class list
        session = FakeSession({})
        client = make_client(session)
        cache = ClassCatalog()
        catalog = resolve_all(["Ghost"], cache, client)
        assert catalog.entries == {"Ghost": []}
        assert cache.entries == {"Ghost": []}

    def test_unwritable_class_names_are_dropped_and_counted(self, tmp_path):
        # each dropped name would split a cache line or a class field on reload
        session = FakeSession({
            "X": ["http://dbpedia.org/yago/Washington,D.C.", "", WORKED_TYPES[0]],
            "Y": ["http://example.org/Line\nBreak", "http://example.org/Tab\tClass", "http://example.org/a\rb"],
        })
        counters = Counter()
        cache = ClassCatalog()
        catalog = resolve_all(["X", "Y"], cache, make_client(session), counters)
        assert catalog.entries == cache.entries == {"X": ["dbo:Event"], "Y": []}
        assert counters["unwritable_class"] == 5
        save_catalog(cache, tmp_path / "cache.tsv")
        assert load_catalog(tmp_path / "cache.tsv").entries == cache.entries

    def test_writable_query_counts_no_unwritable_class(self):
        counters = Counter()
        resolve_all(["X"], ClassCatalog(), make_client(FakeSession({"X": WORKED_TYPES})), counters)
        assert "unwritable_class" not in counters


class TestCatalogFile:
    def test_save_load_identity_order_preserved(self, tmp_path):
        catalog = ClassCatalog(
            {
                "2015 European Games": WORKED_COMPACT,
                "Zürich": ["dbo:City", "dbo:Settlement"],
                "Empty": [],
            }
        )
        path = tmp_path / "cache.tsv"
        save_catalog(catalog, path)
        loaded = load_catalog(path)
        assert loaded.entries == catalog.entries
        assert list(loaded.entries["2015 European Games"]) == WORKED_COMPACT

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("# comment\n\nA\tdbo:Event,owl:Thing\n", encoding="utf-8")
        assert load_catalog(path).entries == {"A": ["dbo:Event", "owl:Thing"]}

    def test_duplicate_target_rejected(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("A\tdbo:Event\nA\towl:Thing\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            load_catalog(path)

    def test_missing_tab_rejected(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("just a target\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_catalog(path)

    @settings(max_examples=100, deadline=None)
    @given(
        st.dictionaries(
            st.text("ab Z", min_size=1, max_size=3),
            st.lists(st.sampled_from(["dbo:City", "dbo:Place", "owl:Thing"]), unique=True),
        ),
        st.sets(st.text("ab Z", min_size=1, max_size=3)),
    )
    def test_keep_loads_the_full_catalog_restricted_to_keep(self, tmp_path_factory, entries, keep):
        path = tmp_path_factory.mktemp("keep") / "cache.tsv"
        save_catalog(ClassCatalog(entries), path)
        full = load_catalog(path).entries
        kept = load_catalog(path, keep).entries
        assert kept == {target: classes for target, classes in full.items() if target in keep}
        assert list(kept) == [target for target in full if target in keep]

    @pytest.mark.parametrize(
        "bad_line, message",
        [("B\tdbo:City", "duplicate target 'B'"), ("no tab at all", "expected two tab-separated columns")],
    )
    def test_bad_line_outside_keep_still_raises(self, tmp_path, bad_line, message):
        path = tmp_path / "cache.tsv"
        path.write_text(f"A\tdbo:Event\nB\towl:Thing\n{bad_line}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: {message}"):
            load_catalog(path, keep={"A"})


# one cache line: a key (maybe "#"-led, blank or duplicated), a tab, a class field
# with empty pieces; or a line that is a comment, blank, whitespace or has no tab
_CACHE_KEYS = st.sampled_from(["A", "B", "C", "#A", "# B", " A", "A "])
_CACHE_FIELDS = st.lists(st.sampled_from(["dbo:City", "dbo:Place", "owl:Thing", ""]), max_size=4).map(",".join)
_CACHE_LINES = st.one_of(
    st.tuples(_CACHE_KEYS, _CACHE_FIELDS).map("\t".join),
    st.sampled_from(["", "   ", "\t", "# a comment", "  # indented comment", "no tab", "\tdbo:City"]),
)


def _load_outcome(loader, path, keep):
    """The entries in order, or the DataError message."""
    try:
        return list(loader(path, keep).entries.items())
    except DataError as exc:
        return str(exc)


class TestLoadCatalogAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(_CACHE_LINES, max_size=12),
        st.sampled_from(["\n", "\r\n"]),
        st.one_of(st.none(), st.sets(_CACHE_KEYS)),
    )
    def test_same_entries_order_and_errors(self, tmp_path_factory, lines, newline, keep):
        path = tmp_path_factory.mktemp("cache") / "cache.tsv"
        path.write_bytes("".join(line + newline for line in lines).encode("utf-8"))
        assert _load_outcome(load_catalog, path, keep) == _load_outcome(oracle_load_catalog, path, keep)

    def test_equal_fields_share_one_list_and_equal_names_one_string(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text(
            "A\tdbo:City,dbo:Place\nB\tdbo:Place\nC\tdbo:City,dbo:Place\nD\t\nE\t,\nF\tdbo:Place\n",
            encoding="utf-8",
        )
        counters = Counter()
        entries = load_catalog(path, counters=counters).entries
        assert entries["A"] is entries["C"]
        assert entries["B"] is entries["F"]
        assert entries["A"][1] is entries["B"][0]  # "dbo:Place" in two different fields
        assert entries["D"] == entries["E"] == [] and entries["D"] is not entries["E"]  # two fields
        assert counters["cache_class_lists"] == 4
        assert oracle_load_catalog(path).entries == entries

    def test_keep_counts_only_the_kept_lists(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("A\tdbo:City\nB\tdbo:Place\nC\tdbo:City\n", encoding="utf-8")
        counters = Counter()
        assert load_catalog(path, {"A", "C"}, counters).entries == {"A": ["dbo:City"], "C": ["dbo:City"]}
        assert counters["cache_class_lists"] == 1

    def test_hits_share_the_cached_list(self):
        cache = ClassCatalog({"A": ["dbo:City"]})
        assert resolve_all(["A"], cache).entries["A"] is cache.entries["A"]

    def test_load_resolve_save_reload_round_trips(self, tmp_path):
        session = FakeSession({"New": WORKED_TYPES})
        path = tmp_path / "cache.tsv"
        path.write_text(
            "# comment\nA\tdbo:City,owl:Thing\nB\t\nC\tdbo:City,owl:Thing\n# D\tdbo:Place\n", encoding="utf-8"
        )
        cache = load_catalog(path)
        catalog = resolve_all(["C", "New", "# D"], cache, make_client(session))
        assert catalog.entries == {"C": ["dbo:City", "owl:Thing"], "New": WORKED_COMPACT, "# D": ["dbo:Place"]}
        save_catalog(cache, path)
        assert load_catalog(path).entries == oracle_load_catalog(path).entries == cache.entries
        assert sorted(cache.entries) == ["# D", "A", "B", "C", "New"]


class VirtualClock:
    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class TestRateLimiter:
    def test_spacing_enforced(self):
        vc = VirtualClock()
        limiter = RateLimiter(2.0, clock=vc.clock, sleep=vc.sleep)
        stamps = []
        for _ in range(6):
            limiter.wait()
            stamps.append(vc.now)
        gaps = [b - a for a, b in zip(stamps, stamps[1:])]
        assert all(gap >= 0.5 - 1e-9 for gap in gaps)

    def test_zero_rate_means_unlimited(self):
        vc = VirtualClock()
        limiter = RateLimiter(0, clock=vc.clock, sleep=vc.sleep)
        for _ in range(10):
            limiter.wait()
        assert vc.now == 0.0

    def test_client_respects_rate_limit(self):
        vc = VirtualClock()
        session = FakeSession({"X": WORKED_TYPES})
        client = SparqlClient(
            "http://fake/sparql",
            session=session,
            rate_limit=4.0,
            batch_size=1,
            retries=1,
            clock=vc.clock,
            sleep=vc.sleep,
        )
        resolve_all(["A", "B", "C", "X"], ClassCatalog(), client)
        # 4 single-target batches at 4 req/s: at least 0.75 virtual seconds
        assert len(session.queries) == 4
        assert vc.now >= 0.75 - 1e-9


class TestSettings:
    @pytest.mark.parametrize(
        "setting, value",
        [
            ("timeout", 0),
            ("timeout", -1.0),
            ("timeout", float("nan")),
            ("timeout", float("inf")),
            ("retries", 0),
            ("batch_size", 0),
            ("concurrency", 0),
            ("concurrency", -3),
            ("rate_limit", -1.0),
            ("rate_limit", float("nan")),
            ("rate_limit", float("inf")),
        ],
    )
    def test_client_rejects_a_setting_out_of_range(self, setting, value):
        # a library caller gets the ranges the CLI enforces, not a quietly changed value
        with pytest.raises(ValueError, match=f"^{setting} must be "):
            make_client(FakeSession({}), **{setting: value})

    @pytest.mark.parametrize("rate", [-1.0, float("nan"), float("inf")])
    def test_rate_limiter_rejects_a_rate_out_of_range(self, rate):
        with pytest.raises(ValueError, match="^rate_limit must be finite and >= 0"):
            RateLimiter(rate)

    def test_settings_at_the_edge_of_their_range_are_kept(self):
        client = make_client(FakeSession({}), timeout=1e-9, retries=1, batch_size=1, concurrency=1, rate_limit=0)
        assert (client.timeout, client.retries, client.batch_size, client.concurrency) == (1e-9, 1, 1, 1)
        check_settings(timeout=0.5, retries=1, batch_size=1, concurrency=1, rate_limit=0.0)

    def test_a_client_defaults_to_the_settings_of_a_run(self):
        # a library client and a CLI run start from the same five settings
        names = ("timeout", "retries", "batch_size", "rate_limit", "concurrency")
        parameters = inspect.signature(SparqlClient).parameters
        fields = {f.name: f.default for f in dataclasses.fields(cli.RunConfig)}
        assert {name: parameters[name].default for name in names} == {name: fields[name] for name in names}
        assert cli._client_settings(cli.RunConfig()) == {name: fields[name] for name in names}
        client = SparqlClient("http://fake/sparql", session=FakeSession({}))
        assert (client.timeout, client.retries, client.batch_size, client.concurrency) == (30.0, 3, 50, 1)


def test_endpoint_environment_override(monkeypatch):
    from uner_pipeline.linker import ENDPOINT_ENV_VAR, endpoint_from_environment

    monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
    assert endpoint_from_environment("http://configured") == "http://configured"
    monkeypatch.setenv(ENDPOINT_ENV_VAR, "http://override")
    assert endpoint_from_environment("http://configured") == "http://override"
    monkeypatch.setenv(ENDPOINT_ENV_VAR, "")
    assert endpoint_from_environment("http://configured") is None


def test_requests_is_imported_only_for_a_real_session():
    # offline and eval runs never send a request, so they skip its import time
    probe = (
        "import sys\n"
        "import uner_pipeline.cli\n"
        "from uner_pipeline.linker import SparqlClient\n"
        "before = 'requests' in sys.modules\n"
        "client = SparqlClient('http://localhost:9/sparql')\n"
        "print(before, type(client._session).__module__)\n"
    )
    src = str(Path(uner_pipeline.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "requests.sessions"]
