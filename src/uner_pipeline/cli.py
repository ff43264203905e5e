"""Command-line orchestration of the corpus pipeline.

Subcommands: extract, link, annotate, stats, enrich, eval, pipeline. A plain
key=value configuration file supplies defaults; flags override it, and the
UNER_SPARQL_ENDPOINT environment variable overrides the endpoint. Every
RunConfig field is both a config key and a flag (batch_size is --batch-size).
All output files are written atomically (temp file + rename) and every run
emits a manifest with per-stage counters and wall times; a stage's wall time
covers reading its inputs, the work and writing its outputs; a pipeline
runs the stages in turn, each reading the files the one before wrote. The
pipeline itself is free of randomness: documents are processed in input
order, and --concurrency only bounds in-flight SPARQL requests, so
identical inputs produce byte-identical corpora at any concurrency level.

Exit codes: 0 success, 1 usage/configuration, 2 data error (including input
that is not valid UTF-8), 3 network exhaustion.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import resource
import sys
import time
import typing
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from . import annotator, enrich, evaluation, ingest, linker, mapping, stats
from .atomic import atomic_output
from .errors import (
    ConfigurationError,
    DataError,
    NetworkExhaustedError,
    PipelineError,
    UsageError,
)

log = logging.getLogger(__name__)


@dataclass
class RunConfig:
    input: Path | None = None
    format: str = field(default="json_lines", metadata={"choices": ingest.DUMP_FORMATS})
    out: Path = Path("out")
    equivalence: Path = field(default_factory=mapping.default_equivalence_path)
    priority: Path = field(default_factory=mapping.default_priority_path)
    cache: Path | None = None
    endpoint: str | None = None
    resource_base: str = linker.DEFAULT_RESOURCE_BASE
    offline: bool = False
    batch_size: int = linker.CLIENT_DEFAULTS["batch_size"]
    timeout: float = linker.CLIENT_DEFAULTS["timeout"]
    retries: int = linker.CLIENT_DEFAULTS["retries"]
    rate_limit: float = linker.CLIENT_DEFAULTS["rate_limit"]
    concurrency: int = linker.CLIENT_DEFAULTS["concurrency"]
    experiments: tuple[int, ...] = ()
    collapse_depth: int | None = None
    kg_map: Path | None = None

    def snapshot(self) -> dict:
        data = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Path):
                value = str(value)
            elif isinstance(value, tuple):
                value = list(value)
            data[f.name] = value
        return data


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"not a boolean: {value!r}")


def _parse_experiments(value: str) -> tuple[int, ...]:
    if not value.strip():
        return ()
    try:
        ids = tuple(int(piece) for piece in value.split(","))
    except ValueError:
        raise UsageError(f"bad experiment list {value!r}; expected e.g. 1,4,6")
    for experiment_id in ids:
        if experiment_id not in enrich.EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment id {experiment_id}; expected 1..{max(enrich.EXPERIMENTS)}"
            )
    if len(set(ids)) != len(ids):
        raise UsageError(f"duplicate experiment id in {value!r}")
    return ids


def _value_type(hint):
    """The type a config value is cast to: ``X`` for ``X | None``."""
    args = typing.get_args(hint)
    return args[0] if type(None) in args else hint


_CASTS_BY_TYPE = {
    str: str,
    Path: Path,
    int: int,
    float: float,
    bool: _parse_bool,
    tuple[int, ...]: _parse_experiments,
}

# config key -> cast from its string form, one per RunConfig field, in field order
CONFIG_CASTS = {
    name: _CASTS_BY_TYPE[_value_type(hint)]
    for name, hint in typing.get_type_hints(RunConfig).items()
}


def read_config_file(path: Path) -> dict[str, str]:
    """Parse ``key = value`` lines; # comments and blank lines ignored."""
    values: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_CASTS:
            raise UsageError(f"{path}:{line_no}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Merge config-file values and CLI overrides into a validated RunConfig.

    A flag wins over the file. An empty value keeps the field's default,
    except a boolean, which must say yes or no.
    """
    file_values: dict[str, str] = {}
    if getattr(args, "config", None):
        file_values = read_config_file(Path(args.config))
    values = {}
    for f in dataclasses.fields(RunConfig):
        flag_value = getattr(args, f.name, None)
        raw = flag_value if flag_value is not None else file_values.get(f.name)
        cast = CONFIG_CASTS[f.name]
        if raw is None or (raw == "" and cast is not _parse_bool):
            continue
        try:
            values[f.name] = cast(raw)
        except ValueError:
            raise UsageError(f"bad value for {f.name}: {raw!r}")
        if "choices" in f.metadata and values[f.name] not in f.metadata["choices"]:
            raise UsageError(f"bad value for {f.name}: {raw!r}")
    config = RunConfig(**values)
    config.endpoint = linker.endpoint_from_environment(config.endpoint)
    if config.collapse_depth is not None and config.collapse_depth < 1:
        raise UsageError("collapse depth must be >= 1")
    try:  # an offline run builds no client, so they are checked here too
        linker.check_settings(**_client_settings(config))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return config


def validate_config_paths(config: RunConfig, command: str) -> None:
    """Fail fast: every referenced path is checked before any stage runs."""
    if command in ("extract", "pipeline") and config.input is None:
        raise UsageError("no input file given (use --input or the config file)")
    if config.input is not None and not config.input.is_file():
        raise UsageError(f"input file not found: {config.input}")
    if config.cache is not None and config.cache.exists() and not config.cache.is_file():
        raise UsageError(f"class cache is not a file: {config.cache}")
    if command in ("annotate", "enrich", "pipeline"):
        for path in (config.equivalence, config.priority):
            if not Path(path).is_file():
                raise UsageError(f"mapping table not found: {path}")
    if command in ("enrich", "pipeline"):
        needing_kg = [e for e in config.experiments if enrich.EXPERIMENTS[e].kg_filter]
        if needing_kg:
            if config.kg_map is None:
                raise ConfigurationError(
                    f"experiments {needing_kg} need a knowledge-graph map (--kg-map)"
                )
            if not config.kg_map.is_file():
                raise UsageError(f"knowledge-graph map not found: {config.kg_map}")


class Manifest:
    """Per-run record: config snapshot, per-stage counters, wall times, peak RSS."""

    def __init__(self, config: RunConfig, command: str):
        self.data = {
            "tool": "uner-pipeline",
            "version": __version__,
            "command": command,
            "config": config.snapshot(),
            "stages": {},
            "status": "ok",
        }

    @contextlib.contextmanager
    def stage(self, name: str):
        """Time a stage and record its counters and wall time, also when it raises."""
        counters: Counter = Counter()
        start = time.perf_counter()
        try:
            yield counters
        finally:
            self.data["stages"][name] = {
                "counters": dict(sorted(counters.items())),
                "wall_time_s": round(time.perf_counter() - start, 6),
            }

    def fail(self, error: Exception) -> None:
        self.data["status"] = "error"
        self.data["error"] = f"{type(error).__name__}: {error}"

    def write(self, out_dir: Path) -> None:
        # the process's high-water mark so far; Linux reports it in KiB
        self.data["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
        with atomic_output(out_dir / "manifest.json") as fh:
            fh.write(json.dumps(self.data, indent=2) + "\n")


def _document_to_json(doc: ingest.Document) -> str:
    return json.dumps(
        {
            "id": doc.doc_id,
            "title": doc.title,
            "text": doc.text,
            "links": [
                {"start": s.start, "end": s.end, "surface": s.surface, "target": s.target}
                for s in doc.links
            ],
        },
        ensure_ascii=False,
    )


def _document_from_json(line: str, line_no: int) -> ingest.Document:
    try:
        obj = json.loads(line)
        links = [
            ingest.LinkSpan(l["start"], l["end"], l["surface"], l["target"]) for l in obj["links"]
        ]
        for span in links:
            if type(span.start) is not int or type(span.end) is not int:  # bool is no offset either
                raise DataError(
                    f"documents file line {line_no}: link offsets must be integers, "
                    f"got start={span.start!r} end={span.end!r}"
                )
        if not isinstance(obj["text"], str):
            raise DataError(f"documents file line {line_no}: text must be a string, got {obj['text']!r}")
        doc_id = str(obj["id"])
        if not ingest.LINE_BREAKS.isdisjoint(doc_id):  # the corpus writes an id on one line
            raise DataError(f"documents file line {line_no}: id must hold no line break, got {doc_id!r}")
        title = obj.get("title", "")
        for name, value in (("id", doc_id), ("title", str(title)), ("text", obj["text"])):
            if ingest.LONE_SURROGATE.search(value):  # as in extract: UTF-8 cannot encode one
                raise DataError(f"documents file line {line_no}: {name} holds a lone surrogate")
        links.sort(key=lambda span: span.start)  # a Document's order; stable, so file order breaks ties
        return ingest.Document(doc_id, title, obj["text"], tuple(links))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DataError(f"documents file line {line_no}: {exc}") from exc


def _built_and_written(raws, fh, counters: Counter) -> typing.Iterator[ingest.Document]:
    """Build each dump document and pass it on once its line is written to ``fh``."""
    for raw in raws:
        doc = ingest.build_document(raw, counters)
        counters["links"] += len(doc.links)
        fh.write(_document_to_json(doc) + "\n")
        yield doc


def cmd_extract(config: RunConfig, manifest: Manifest) -> None:
    with manifest.stage("extract") as counters:
        with open(config.input, encoding="utf-8") as dump, atomic_output(config.out / "documents.jsonl") as fh:
            raws = ingest.parse_dump_stream(dump, config.format, counters)
            targets = ingest.collect_unique_targets(_built_and_written(raws, fh, counters))
        counters["unique_targets"] += len(targets)
        log.info(
            "extracted %d documents, %d links, %d unique targets",
            counters["documents"], counters["links"], counters["unique_targets"],
        )
        with atomic_output(config.out / "targets.txt") as fh:
            fh.writelines(target + "\n" for target in targets)


def _client_settings(config: RunConfig) -> dict:  # what linker.check_settings checks
    return {name: getattr(config, name) for name in linker.CLIENT_DEFAULTS}


def _make_client(config: RunConfig) -> linker.SparqlClient | None:
    if config.offline or not config.endpoint:
        return None
    return linker.SparqlClient(config.endpoint, resource_base=config.resource_base, **_client_settings(config))


def cmd_link(config: RunConfig, manifest: Manifest, targets_path: Path) -> None:
    with manifest.stage("link") as counters:
        targets = [line for line in targets_path.read_text(encoding="utf-8").splitlines() if line]
        client = _make_client(config)
        cache = linker.ClassCatalog()
        if config.cache and config.cache.is_file():
            # only a run that queries rewrites the cache, so only it needs all of it
            keep = None if client is not None else set(targets)
            cache = linker.load_catalog(config.cache, keep, counters)
        catalog = linker.resolve_all(targets, cache, client, counters)
        if client is not None:
            counters["requests"] = client.request_count
        log.info(
            "resolved %d targets (%d cache hits, %d unresolved)",
            counters["targets"], counters["cache_hits"], counters["unresolved"],
        )
        if config.cache and counters["resolved_by_query"] > 0:  # unchanged otherwise
            linker.save_catalog(cache, config.cache)
        if counters["unresolved"] > 0 and counters["resolved_by_query"] == 0 and counters["requests"] > 0:
            raise NetworkExhaustedError(
                f"all {counters['unresolved']} queried targets failed; endpoint unreachable?"
            )
        linker.save_catalog(catalog, config.out / "catalog.tsv")


def build_label_map(
    catalog: linker.ClassCatalog,
    equivalences: mapping.EquivalenceMap,
    priorities: mapping.PriorityMap,
    counters: Counter,
) -> dict[str, str]:
    labels: dict[str, str] = {}
    for target, classes in catalog.entries.items():
        label = mapping.label_for_classes(classes, equivalences, priorities, counters)
        if label is None:
            counters["targets_unmapped"] += 1
        else:
            labels[target] = label
    return labels


def cmd_annotate(config: RunConfig, manifest: Manifest, documents_path: Path, catalog_path: Path) -> None:
    with manifest.stage("annotate") as counters:
        catalog = linker.load_catalog(catalog_path)
        equivalences, priorities = mapping.load_mapping_tables(config.equivalence, config.priority)
        labels = build_label_map(catalog, equivalences, priorities, counters)
        counters.update(documents_kept=0, tokens=0)
        with open(documents_path, encoding="utf-8") as fh, atomic_output(config.out / "corpus.conll") as out:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                doc = _document_from_json(line, line_no)
                sentences = annotator.annotate_document(doc, labels, counters)
                if sentences:  # written at once, so annotate holds one document
                    counters["documents_kept"] += 1
                    counters["tokens"] += sum(len(sentence.texts) for sentence in sentences)
                    annotator.emit_conll(annotator.AnnotatedCorpus([(doc.doc_id, sentences)]), out)


def _targets_path(config: RunConfig) -> Path:
    """The targets a standalone link reads: a ``.txt`` --input, else targets.txt under --out."""
    txt_input = config.input is not None and config.input.suffix == ".txt"
    path = config.input if txt_input else config.out / "targets.txt"
    if not path.is_file():
        raise UsageError(f"targets file not found: {path} (run extract first)")
    return path


def _annotate_paths(config: RunConfig) -> tuple[Path, Path]:
    """The documents and the catalog a standalone annotate reads."""
    documents_path = config.input if config.input else config.out / "documents.jsonl"
    if not documents_path.is_file():
        raise UsageError(f"documents file not found: {documents_path} (run extract first)")
    catalog_path = config.out / "catalog.tsv"
    if not catalog_path.is_file():
        catalog_path = config.cache
    if catalog_path is None or not catalog_path.is_file():
        raise UsageError("no class catalog found (run link first or point --cache at one)")
    return documents_path, catalog_path


def cmd_stats(config: RunConfig, manifest: Manifest, corpus_path: Path) -> None:
    if not corpus_path.is_file():
        raise UsageError(f"corpus file not found: {corpus_path}")
    with manifest.stage("stats") as counters:
        with open(corpus_path, encoding="utf-8") as fh:
            report, entities = stats.read_stats(fh)
        counters["total_tokens"] += report.total_tokens
        counters["entities"] += report.entity_count
        for name, text in (
            ("stats.txt", stats.render_text(report)),
            ("stats.json", stats.render_json(report)),
            ("entities.tsv", "".join(f"{surface}\t{label}\n" for surface, label in entities)),
        ):
            with atomic_output(config.out / name) as fh:
                fh.write(text)


def cmd_enrich(config: RunConfig, manifest: Manifest, corpus_path: Path) -> None:
    if not config.experiments:
        raise UsageError("no experiments selected (use --experiments, e.g. 1,4,6)")
    if not corpus_path.is_file():
        raise UsageError(f"corpus file not found: {corpus_path}")
    with manifest.stage("enrich") as counters:
        with open(corpus_path, encoding="utf-8") as fh:
            corpus = annotator.parse_conll(fh)
        kg_map = equivalences = None
        if any(enrich.EXPERIMENTS[e].kg_filter for e in config.experiments):
            kg_map = enrich.load_kg_map(config.kg_map)
            equivalences = mapping.load_mapping_tables(config.equivalence, config.priority)[0]
        dictionaries, results = enrich.run_experiments(
            corpus, config.experiments, kg_map, equivalences, counters
        )
        # the built dictionaries are outputs too, in application order
        for base, dictionary in dictionaries.items():
            counters[f"{base}_dictionary_size"] += len(dictionary.entries)
            enrich.save_dictionary(dictionary, config.out / f"dictionary_{base}.tsv")
        for experiment_id, enriched in results:
            tags = (tag for _, doc in enriched.documents for s in doc for tag in s.tags)
            counters[f"exp{experiment_id}_entities"] += sum(tag[0] == "B" for tag in tags)
            with atomic_output(config.out / f"corpus_exp{experiment_id}.conll") as fh:
                annotator.emit_conll(enriched, fh)
            del enriched  # written, so the next result is computed without it


def cmd_eval(
    config: RunConfig,
    manifest: Manifest,
    golden: Path,
    system: Path,
    include_o: bool = False,
) -> None:
    for path in (golden, system):
        if not path.is_file():
            raise UsageError(f"file not found: {path}")
    with manifest.stage("eval") as counters:
        with open(golden, encoding="utf-8") as g, open(system, encoding="utf-8") as s:
            alignment = evaluation.align(g, s)
        report = evaluation.per_tag_metrics(alignment.pair_counts, config.collapse_depth)
        counters["aligned_tokens"] += len(alignment)
        counters["documents"] += alignment.documents
        counters["sentences"] += alignment.sentences
        counters["tags_scored"] += len(report.per_tag)
        coarse = None
        if alignment.system_error is None:
            coarse = evaluation.coarse_report(alignment.pair_counts)
        else:  # files that break the IOB invariants still get scored
            counters["system_coarse_counts_skipped"] += 1
            log.warning(
                "%s: eval.json left without system_coarse_counts: %s", system, alignment.system_error
            )
        text = evaluation.render_text(report, include_o)
        for name, content in (
            ("eval.json", evaluation.render_json(report, include_o, coarse)),
            ("eval.txt", text),
        ):
            with atomic_output(config.out / name) as fh:
                fh.write(content)
        sys.stdout.write(text)


def cmd_pipeline(config: RunConfig, manifest: Manifest) -> None:
    """The staged extract, link, annotate, stats and enrich, each reading the files before it in ``--out``."""
    cmd_extract(config, manifest)
    cmd_link(config, manifest, config.out / "targets.txt")
    cmd_annotate(config, manifest, config.out / "documents.jsonl", config.out / "catalog.tsv")
    cmd_stats(config, manifest, config.out / "corpus.conll")
    if config.experiments:
        cmd_enrich(config, manifest, config.out / "corpus.conll")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="uner-pipeline", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value configuration file")
        for f in dataclasses.fields(RunConfig):  # every config key is also a flag
            flag = "--" + f.name.replace("_", "-")
            if CONFIG_CASTS[f.name] is _parse_bool:
                p.add_argument(flag, dest=f.name, action="store_const", const="true")
            else:
                p.add_argument(flag, dest=f.name, choices=f.metadata.get("choices"))

    for name in ("extract", "link", "annotate", "stats", "enrich", "pipeline"):
        add_common(sub.add_parser(name))
    eval_parser = sub.add_parser("eval")
    add_common(eval_parser)
    eval_parser.add_argument("golden", help="golden CoNLL file")
    eval_parser.add_argument("system", help="system CoNLL file")
    eval_parser.add_argument(
        "--include-o", action="store_true", help="report the O tag (never in the macro)"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if args.verbose:
        logging.getLogger().setLevel(logging.DEBUG)
    manifest = None
    try:
        config = build_config(args)
        validate_config_paths(config, args.command)
        config.out.mkdir(parents=True, exist_ok=True)
        manifest = Manifest(config, args.command)
        if args.command == "extract":
            cmd_extract(config, manifest)
        elif args.command == "link":
            cmd_link(config, manifest, _targets_path(config))
        elif args.command == "annotate":
            cmd_annotate(config, manifest, *_annotate_paths(config))
        elif args.command == "stats":
            cmd_stats(config, manifest, config.input or config.out / "corpus.conll")
        elif args.command == "enrich":
            cmd_enrich(config, manifest, config.input or config.out / "corpus.conll")
        elif args.command == "eval":
            cmd_eval(config, manifest, Path(args.golden), Path(args.system), args.include_o)
        elif args.command == "pipeline":
            cmd_pipeline(config, manifest)
        manifest.write(config.out)
        return 0
    except (PipelineError, OSError, UnicodeDecodeError) as exc:
        if manifest is not None:
            manifest.fail(exc)
            try:
                manifest.write(config.out)
            except OSError:
                pass
        if isinstance(exc, UnicodeDecodeError):
            print(f"error: input is not valid UTF-8: {exc}", file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, UsageError):
            return 1
        if isinstance(exc, NetworkExhaustedError):
            return 3
        return 2


if __name__ == "__main__":
    sys.exit(main())
