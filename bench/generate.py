"""Seeded input generator for the benchmark workloads.

Every workload is built from ``random.Random(f"{workload}:{seed}")`` alone, so
one seed always gives the same files. Alongside the program's inputs the
generator writes what the program must produce: the exact ``corpus.conll``
of a pipeline run and the ``eval.json`` scores of an eval run, computed here
from the generated tokens and tags without calling into ``uner_pipeline``.

The text is built so that tokenization and sentence splitting are known in
advance: words are ASCII letters, the only punctuation is ``,`` and a final
``.``, and every sentence starts with an uppercase letter. Filler words end in
a vowel and entity words in a consonant, so no filler word ever spells out an
entity surface.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from urllib.parse import quote

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "uner_pipeline" / "data"

CACHE_HEADER = "# target<TAB>comma-separated classes in canonical order\n"
DOC_HEADER = "# doc_id = "
WORKLOADS = ("long-docs", "short-docs-enrich", "eval-large")
EXPERIMENTS = (1, 2, 3, 4, 5, 6, 7)

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"
_FINALS = "knrstx"


@dataclass
class Sizes:
    """Input dimensions of one workload."""

    documents: int
    sentences: int  # per document
    targets: int = 0  # distinct link targets the dump can draw from
    zipf: float = 1.1


SIZES = {
    "long-docs": Sizes(documents=8, sentences=300, targets=110_000),
    "short-docs-enrich": Sizes(documents=90, sentences=3, targets=500, zipf=0.9),
    "eval-large": Sizes(documents=450, sentences=16),
}


@dataclass
class Workload:
    """Generated inputs plus the outputs a correct run must write."""

    name: str
    argv: list[str]  # CLI arguments, without --out
    doc_ids: list[str]  # dump documents (aligned documents for eval)
    tokens: int  # corpus tokens (aligned tokens for eval)
    expected_corpus: str | None = None  # exact corpus.conll
    expected_eval: dict | None = None  # exact eval.json
    outputs: list[str] = field(default_factory=list)  # files a run must write
    cache: Path | None = None
    kg_map: Path | None = None

    @property
    def documents(self) -> int:
        return len(self.doc_ids)


def load_tables() -> tuple[dict[str, str | None], dict[str, int]]:
    """The packaged class -> label and class -> priority tables."""

    def rows(name):
        with open(DATA / name, encoding="utf-8") as fh:
            for line in fh:
                if line.strip() and not line.startswith("#"):
                    key, value = line.rstrip("\n").split("\t")
                    yield key, value

    labels = {cls: None if value == "NULL" else value for cls, value in rows("uner_dbpedia_equivalence.tsv")}
    priorities = {cls: int(value) for cls, value in rows("dbpedia_priority.tsv")}
    return labels, priorities


def expected_label(classes, labels, priorities) -> str | None:
    """Highest priority class wins, the earliest on ties; None when NULL."""
    best, best_priority = None, None
    for cls in classes:
        priority = priorities.get(cls)
        if priority is not None and (best_priority is None or priority > best_priority):
            best, best_priority = cls, priority
    return labels.get(best) if best is not None else None


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))


def _vocabulary(rng, size, make) -> list[str]:
    words: set[str] = set()
    while len(words) < size:
        words.add(make())
    return sorted(words)


def _zipf_weights(n: int, s: float) -> list[float]:
    total, cumulative = 0.0, []
    for rank in range(1, n + 1):
        total += rank**-s
        cumulative.append(total)
    return cumulative


class _Universe:
    """Link targets with their surfaces, cached classes and expected labels.

    Targets are listed by popularity rank. A target's kind (missing from the
    cache, resolved but unlabelled, labelled) and its surface's word count
    follow from its rank alone, and so does its kg map entry: the Zipf head
    carries most links, and leaving its kinds to chance would make the work
    per run swing from seed to seed. Names, classes and labels are random.
    """

    def __init__(self, rng: random.Random, count: int, zipf: float, labels, priorities):
        entity_words = _vocabulary(
            rng, max(1000, count // 20), lambda: (_word(rng, rng.randint(1, 2)) + rng.choice(_FINALS)).capitalize()
        )
        labelled_classes = sorted(c for c, label in labels.items() if label is not None)
        all_classes = sorted(labels)
        self.targets: list[str] = []  # by rank
        self.surface: dict[str, str] = {}
        self.classes: dict[str, list[str]] = {}  # only the targets in the cache
        self.label: dict[str, str] = {}  # only the targets that get a label
        for rank in range(count):
            words = [rng.choice(entity_words) for _ in range((1, 2, 2, 3, 1, 2)[rank % 6])]
            target = "_".join(words)
            if target in self.surface:
                target = f"{target}_({rank})"  # parentheses make the href need percent-encoding
            self.targets.append(target)
            self.surface[target] = " ".join(words)
            if rank % 11 == 4:
                continue  # missing from the cache: unresolved offline
            if rank % 7 == 2:
                classes = ["owl:Thing"]  # resolved but never annotated
            else:
                # the label class, sometimes with another class or one without a priority
                classes = [rng.choice(labelled_classes)]
                if rng.random() < 0.3:
                    classes.append(rng.choice(all_classes))
                if rng.random() < 0.05:
                    classes.append("wikidata:Q5")
                rng.shuffle(classes)
                classes = list(dict.fromkeys(classes + ["owl:Thing"]))
                if expected_label(classes, labels, priorities) is None:
                    classes = [classes[0] if classes[0] in labelled_classes else "dbo:Person", "owl:Thing"]
            self.classes[target] = classes
            label = expected_label(classes, labels, priorities)
            if label is not None:
                self.label[target] = label
        self._weights = _zipf_weights(count, zipf)

    def draw(self, rng: random.Random) -> str:
        return rng.choices(self.targets, cum_weights=self._weights)[0]

    def sequence(self, rng: random.Random, n: int):
        """``n`` targets, each rank as often as its Zipf share of ``n`` rounds to, shuffled."""
        total, previous, exact = self._weights[-1], 0.0, []
        for cumulative in self._weights:
            exact.append(n * (cumulative - previous) / total)
            previous = cumulative
        counts = [int(x) for x in exact]
        for rank in sorted(range(len(exact)), key=lambda r: counts[r] - exact[r])[: n - sum(counts)]:
            counts[rank] += 1
        targets = [t for t, count in zip(self.targets, counts) for _ in range(count)]
        rng.shuffle(targets)
        return iter(targets)

    def write_cache(self, path: Path) -> None:
        # sorted and headed exactly as the linker rewrites it, so a run leaves it unchanged
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(CACHE_HEADER)
            for target in sorted(self.classes):
                fh.write(f"{target}\t{','.join(self.classes[target])}\n")


def _link_markup(rng: random.Random, target: str, surface: str) -> str:
    """One well-formed link in one of the accepted spellings."""
    draw = rng.random()
    if draw < 0.10:
        return f"[[{target}|{surface}]]"
    if draw < 0.16:
        return f'<a href="{quote(target)}#Section_{rng.randint(1, 9)}">{surface}</a>'
    if draw < 0.26 or "(" in target:
        return f'<a href="{quote(target)}">{surface}</a>'
    return f'<a href="{target}">{surface}</a>'


def _noise_markup(rng: random.Random, surface: str) -> str:
    """Malformed markup; the extractor keeps its words as plain text."""
    draw = rng.random()
    if draw < 0.4:
        return f'<a href="">{surface}</a>'  # empty target
    if draw < 0.7:
        return f'<a href="#History">{surface}</a>'  # empty once the fragment is cut
    if draw < 0.85:
        return f'<a href="Unclosed_Anchor">{surface}'  # never closed
    return f"[[ {surface}"  # never closed


class _DocumentWriter:
    """Builds one document's markup and its expected CoNLL rows together."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.pieces: list[str] = []
        self.sentences: list[list[tuple[str, str]]] = []
        self._rows: list[tuple[str, str]] = []
        self._first = True

    def word(self, text: str) -> None:
        if self._first:
            text = text.capitalize()
        self._add(text, [(text, "O")])

    def comma(self) -> None:
        self.pieces.append(",")
        self._rows.append((",", "O"))

    def span(self, markup: str, surface: str, label: str | None) -> None:
        words = surface.split(" ")
        if label is None:
            rows = [(w, "O") for w in words]
        else:
            rows = [(w, ("B-" if i == 0 else "I-") + label) for i, w in enumerate(words)]
        self._add(markup, rows)

    def _add(self, markup: str, rows: list[tuple[str, str]]) -> None:
        if self.pieces and not self._first:
            self.pieces.append(" ")
        elif self.pieces:
            self.pieces.append("\n\n" if self.rng.random() < 0.1 else " ")
        self.pieces.append(markup)
        self._rows.extend(rows)
        self._first = False

    def end_sentence(self) -> None:
        self.pieces.append(".")
        self._rows.append((".", "O"))
        self.sentences.append(self._rows)
        self._rows = []
        self._first = True

    def text(self) -> str:
        return "".join(self.pieces)


def _dump_line(doc_id: str, title: str, text: str) -> str:
    url = f"https://en.wikipedia.org/wiki?curid={doc_id}"
    return json.dumps({"id": doc_id, "url": url, "title": title, "text": text}, ensure_ascii=False) + "\n"


def _write_pipeline(rng, sizes: Sizes, work: Path, labels, priorities, enrich: bool):
    """Write dump.jsonl and cache.tsv; return (document ids, corpus tokens, corpus.conll, universe)."""
    universe = _Universe(rng, sizes.targets, sizes.zipf, labels, priorities)
    universe.write_cache(work / "cache.tsv")
    filler = _vocabulary(rng, 3000, lambda: _word(rng, rng.randint(1, 3)))
    # every sentence holds two links, and in the enrich workload one unlinked
    # mention, so the work per run does not swing with the seed
    sentences = sizes.documents * sizes.sentences
    links = universe.sequence(rng, 2 * sentences)
    mentions = universe.sequence(rng, sentences if enrich else 0)
    lines: list[str] = []
    doc_ids: list[str] = []
    corpus: list[str] = []
    tokens = 0
    for d in range(sizes.documents):
        doc_id = str(100_000 + d)
        doc_ids.append(doc_id)
        doc = _DocumentWriter(rng)
        seen: list[str] = []  # surfaces linked earlier in this document
        for s in range(sizes.sentences):
            number = d * sizes.sentences + s
            items = ["link", "link"] + ["mention"] * enrich + ["word"] * (4 + number % 7)
            if number % 12 == 5:
                items.append("noise")
            rng.shuffle(items)
            for item in items:
                if item == "link":
                    target = next(links)
                    surface = universe.surface[target]
                    doc.span(_link_markup(rng, target, surface), surface, universe.label.get(target))
                    seen.append(surface)
                elif item == "mention":
                    # an unlinked mention, often of a surface linked earlier in the document
                    surface = universe.surface[next(mentions)]
                    if seen and rng.random() < 0.5:
                        surface = rng.choice(seen)
                    doc.span(surface, surface, None)
                elif item == "noise":
                    surface = universe.surface[universe.draw(rng)]
                    doc.span(_noise_markup(rng, surface), surface, None)
                else:
                    doc.word(rng.choice(filler))
                if rng.random() < 0.05:
                    doc.comma()
            doc.end_sentence()
        lines.append(_dump_line(doc_id, f"Article {d}", doc.text()))
        kept = [s for s in doc.sentences if any(tag.startswith("B-") for _, tag in s)]
        if kept:
            corpus.append(f"{DOC_HEADER}{doc_id}\n")
            for sentence in kept:
                corpus.extend(f"{text}\t{tag}\n" for text, tag in sentence)
                corpus.append("\n")
                tokens += len(sentence)
    # lines the reader must skip: broken JSON, a record without text, a repeated id
    noise = ['{"id": "broken", "title": "Broken", "text": "Unterminated\n', '{"id": "900001", "title": "No text"}\n']
    noise.append(_dump_line(str(100_000), "Repeated id", "Repeated <a href=\"X\">Zzz</a> text."))
    for line in noise:
        lines.insert(rng.randint(1, len(lines)), line)
    with open(work / "dump.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    return doc_ids, tokens, "".join(corpus), universe


def _write_kg_map(rng, universe: _Universe, labels, path: Path) -> None:
    """Surface -> class for most surfaces; some classes map to NULL or to nothing."""
    labelled = sorted(c for c, label in labels.items() if label is not None)
    null = sorted(c for c, label in labels.items() if label is None)
    entries: dict[str, str] = {}
    for rank, target in enumerate(universe.targets):
        kind = rank % 10
        if kind < 3:
            continue  # unknown to the graph
        cls = rng.choice(null) if kind == 3 else "dbo:NotInTheTable" if kind == 4 else rng.choice(labelled)
        entries.setdefault(universe.surface[target], cls)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# surface<TAB>class from an external knowledge graph\n")
        fh.writelines(f"{surface}\t{cls}\n" for surface, cls in sorted(entries.items()))


def _entity_tags(rng, labels_pool, length) -> list[str]:
    """A sentence's tags: 1-4 entities of 1-3 tokens between O tokens."""
    tags = ["O"] * length
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, 3)
        start = rng.randrange(0, length - size + 1)
        if any(t != "O" for t in tags[max(0, start - 1) : start + size + 1]):
            continue
        label = rng.choice(labels_pool)
        tags[start : start + size] = ["B-" + label] + ["I-" + label] * (size - 1)
    if all(t == "O" for t in tags):
        tags[0] = "B-" + rng.choice(labels_pool)
    return tags


def _perturb(rng, tags: list[str], labels_pool) -> list[str]:
    """Relabel, drop and add entities; the result stays IOB-valid with a B per sentence."""
    out = list(tags)
    runs = [i for i, t in enumerate(out) if t.startswith("B-")]
    for start in runs:
        end = start + 1
        while end < len(out) and out[end].startswith("I-"):
            end += 1
        draw = rng.random()
        if draw < 0.1:
            label = rng.choice(labels_pool)
            out[start:end] = ["B-" + label] + ["I-" + label] * (end - start - 1)
        elif draw < 0.18 and sum(t.startswith("B-") for t in out) > 1:
            out[start:end] = ["O"] * (end - start)
    if rng.random() < 0.15:
        start = rng.randrange(len(out))
        end = start
        while end < len(out) and end < start + 2 and out[end] == "O":
            end += 1
        if end > start:
            label = rng.choice(labels_pool)
            out[start:end] = ["B-" + label] + ["I-" + label] * (end - start - 1)
    return out


def score(gold_tags: list[str], system_tags: list[str], depth: int) -> dict:
    """Expected eval.json: token-level tp/fp/fn per collapsed tag, then P/R/F1.

    Written independently of ``uner_pipeline.evaluation``; only the output
    conventions are shared (percentages, 0/0 -> 0, half-up rounding to one
    decimal, macro over non-O tags with a non-zero value).
    """
    def collapse(tag):
        return tag if tag == "O" else tag[:2] + "-".join(tag[2:].split("-")[:depth])

    def round1(value):
        return float(Decimal(repr(value)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))

    counts: dict[str, list[int]] = {}  # tag -> [tp, fp, fn]
    for gold, system in zip(gold_tags, system_tags):
        gold, system = collapse(gold), collapse(system)
        counts.setdefault(gold, [0, 0, 0])
        counts.setdefault(system, [0, 0, 0])
        if gold == system:
            counts[gold][0] += 1
        else:
            counts[gold][2] += 1
            counts[system][1] += 1
    per_tag, counted = {}, []
    for tag in sorted(counts):
        tp, fp, fn = counts[tag]
        p = 100.0 * tp / (tp + fp) if tp + fp else 0.0
        r = 100.0 * tp / (tp + fn) if tp + fn else 0.0
        f = 2 * p * r / (p + r) if p + r else 0.0
        per_tag[tag] = (p, r, f, tp + fn)
        if tag != "O" and (p, r, f) != (0.0, 0.0, 0.0):
            counted.append(tag)
    macro = [sum(per_tag[t][k] for t in counted) / len(counted) if counted else 0.0 for k in range(3)]
    entities = [t[2:] for t in system_tags if t.startswith("B-")]
    coarse = {
        "Person": sum(label == "Name-Person-Name" for label in entities),
        "Location": sum(label.split("-")[:2] == ["Name", "Location"] for label in entities),
        "Organization": sum(label.split("-")[:2] == ["Name", "Organization"] for label in entities),
    }
    return {
        "collapse_depth": depth,
        "macro": {"precision": round1(macro[0]), "recall": round1(macro[1]), "f1": round1(macro[2])},
        "counted_tags": counted,
        "per_tag": {
            tag: {"precision": round1(p), "recall": round1(r), "f1": round1(f), "support": support}
            for tag, (p, r, f, support) in per_tag.items()
            if tag != "O"
        },
        "system_coarse_counts": {
            name: {"count": count, "share": count / len(entities) if entities else 0.0}
            for name, count in coarse.items()
        },
    }


def _write_eval(rng, sizes: Sizes, work: Path, labels) -> tuple[list[str], int, dict]:
    """Write golden.conll and system.conll; return (document ids, aligned tokens, expected eval.json)."""
    labels_pool = sorted({label for label in labels.values() if label is not None})
    words = _vocabulary(rng, 5000, lambda: _word(rng, rng.randint(1, 3)))
    doc_ids = [str(200_000 + d) for d in range(sizes.documents)]
    all_gold: list[str] = []
    all_system: list[str] = []
    with open(work / "golden.conll", "w", encoding="utf-8") as golden, open(
        work / "system.conll", "w", encoding="utf-8"
    ) as system:
        for doc_id in doc_ids:
            header = f"{DOC_HEADER}{doc_id}\n"
            golden.write(header)
            system.write(header)
            for _ in range(sizes.sentences):
                length = rng.randint(8, 30)
                texts = [rng.choice(words) for _ in range(length)]
                gold_tags = _entity_tags(rng, labels_pool, length)
                system_tags = _perturb(rng, gold_tags, labels_pool)
                golden.write("".join(f"{t}\t{g}\n" for t, g in zip(texts, gold_tags)) + "\n")
                system.write("".join(f"{t}\t{s}\n" for t, s in zip(texts, system_tags)) + "\n")
                all_gold.extend(gold_tags)
                all_system.extend(system_tags)
    return doc_ids, len(all_gold), score(all_gold, all_system, depth=2)


PIPELINE_OUTPUTS = [
    "documents.jsonl", "targets.txt", "catalog.tsv", "corpus.conll",
    "stats.txt", "stats.json", "entities.tsv", "manifest.json",
]


def generate(name: str, seed: int, work: Path, sizes: Sizes | None = None) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` under ``work``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    sizes = sizes or SIZES[name]
    rng = random.Random(f"{name}:{seed}")
    labels, priorities = load_tables()
    work.mkdir(parents=True, exist_ok=True)
    if name == "eval-large":
        doc_ids, tokens, expected = _write_eval(rng, sizes, work, labels)
        argv = ["eval", "--collapse-depth", "2", str(work / "golden.conll"), str(work / "system.conll")]
        return Workload(name, argv, doc_ids, tokens, expected_eval=expected,
                        outputs=["eval.json", "eval.txt", "manifest.json"])
    enrich = name == "short-docs-enrich"
    doc_ids, tokens, corpus, universe = _write_pipeline(rng, sizes, work, labels, priorities, enrich)
    argv = ["pipeline", "--offline", "--input", str(work / "dump.jsonl"), "--cache", str(work / "cache.tsv")]
    outputs = list(PIPELINE_OUTPUTS)
    kg_map = None
    if enrich:
        kg_map = work / "kg_map.tsv"
        _write_kg_map(rng, universe, labels, kg_map)
        argv += ["--experiments", ",".join(map(str, EXPERIMENTS)), "--kg-map", str(kg_map), "--concurrency", "1"]
        outputs += ["dictionary_global.tsv", "dictionary_global_multi.tsv"]
        outputs += [f"corpus_exp{e}.conll" for e in EXPERIMENTS]
    else:
        argv += ["--concurrency", "2"]
    return Workload(name, argv, doc_ids, tokens, expected_corpus=corpus, outputs=outputs,
                    cache=work / "cache.tsv", kg_map=kg_map)
