import io
import json
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uner_pipeline import linker
from uner_pipeline.ingest import (
    LINE_BREAKS,
    Document,
    LinkSpan,
    RawDocument,
    build_document,
    collect_unique_targets,
    extract_links,
    parse_dump_stream,
)


def jl(**kwargs) -> str:
    return json.dumps(kwargs)


class TestParseDumpStreamJsonLines:
    def test_direct_field_mapping(self):
        stream = io.StringIO(jl(id="12", url="u", title="T", text="body") + "\n")
        assert list(parse_dump_stream(stream)) == [RawDocument("12", "T", "body")]  # the url is ignored

    def test_empty_stream(self):
        counters = Counter()
        assert list(parse_dump_stream(io.StringIO(""), counters=counters)) == []
        assert counters["documents"] == 0
        assert counters["malformed_lines"] == 0

    def test_missing_text_field_skipped_and_counted(self):
        counters = Counter()
        stream = io.StringIO(jl(id="1", url="u", title="T") + "\n")
        assert list(parse_dump_stream(stream, counters=counters)) == []
        assert counters["malformed_lines"] == 1

    def test_invalid_json_counted(self):
        counters = Counter()
        stream = io.StringIO('{"id": "1", broken\n' + jl(id="2", title="B", text="t") + "\n")
        docs = list(parse_dump_stream(stream, counters=counters))
        assert [d.doc_id for d in docs] == ["2"]
        assert counters["malformed_lines"] == 1

    def test_duplicate_id_skipped(self):
        counters = Counter()
        stream = io.StringIO(
            jl(id="1", title="A", text="x") + "\n" + jl(id="1", title="B", text="y") + "\n"
        )
        docs = list(parse_dump_stream(stream, counters=counters))
        assert len(docs) == 1 and docs[0].title == "A"
        assert counters["duplicate_doc_id"] == 1

    def test_utf8_text_stream_decoded_by_its_reader(self):
        raw = io.BytesIO((jl(id="5", title="T", text="zürich") + "\n").encode("utf-8"))
        stream = io.TextIOWrapper(raw, encoding="utf-8")
        docs = list(parse_dump_stream(stream))
        assert docs[0].markup_text == "zürich"

    def test_numeric_id_coerced_to_string(self):
        stream = io.StringIO(jl(id=12, title="T", text="b") + "\n")
        assert list(parse_dump_stream(stream))[0].doc_id == "12"


class TestParseDumpStreamPlainAnchored:
    def test_block(self):
        text = '<doc id="7" url="u" title="Seven">\nSeven\n\nbody line\n</doc>\n'
        docs = list(parse_dump_stream(io.StringIO(text)))
        assert len(docs) == 1
        assert docs[0].doc_id == "7"
        assert docs[0].title == "Seven"
        assert docs[0].markup_text == "Seven\n\nbody line\n"

    def test_unclosed_block_counted(self):
        counters = Counter()
        text = '<doc id="7" title="Seven">\nbody\n'
        assert list(parse_dump_stream(io.StringIO(text), counters=counters)) == []
        assert counters["malformed_lines"] == 1

    def test_missing_id_counted(self):
        counters = Counter()
        text = '<doc title="NoId">\nbody\n</doc>\n'
        assert list(parse_dump_stream(io.StringIO(text), counters=counters)) == []
        assert counters["malformed_lines"] == 1


class TestParseDumpStreamLayouts:
    """Blocks and JSON records are told apart line by line, so one file may hold both."""

    def parse(self, text: str) -> tuple[list[RawDocument], Counter]:
        counters = Counter()
        return list(parse_dump_stream(io.StringIO(text), counters=counters)), counters

    def test_mixed_layouts_in_file_order(self):
        text = (
            jl(id="1", title="One", text="first") + "\n\n"
            + '  <doc id="2" url="u" title="Two">  \nsecond\n </doc>\n'
            + jl(id="3", title="Three", text="third") + "\n"
        )
        docs, counters = self.parse(text)
        assert docs == [RawDocument("1", "One", "first"), RawDocument("2", "Two", "second\n"), RawDocument("3", "Three", "third")]
        assert counters["documents"] == 3
        assert counters["malformed_lines"] == 0

    def test_duplicate_id_across_layouts(self):
        docs, counters = self.parse(jl(id="1", title="A", text="x") + '\n<doc id="1" title="B">\ny\n</doc>\n')
        assert [d.title for d in docs] == ["A"]
        assert counters["duplicate_doc_id"] == 1

    def test_stray_line_between_blocks_counted(self):
        text = '<doc id="1" title="A">\na\n</doc>\nstray text\n\n<doc id="2" title="B">\nb\n</doc>\n'
        docs, counters = self.parse(text)
        assert [d.doc_id for d in docs] == ["1", "2"]
        assert counters["malformed_lines"] == 1

    def test_json_line_inside_a_block_is_body_text(self):
        record = jl(id="9", title="Nine", text="nine")
        docs, counters = self.parse(f'<doc id="1" title="A">\n{record}\n\n</doc>\n')
        assert docs == [RawDocument("1", "A", record + "\n\n")]
        assert counters["documents"] == 1
        assert counters["malformed_lines"] == 0

    def test_close_tag_outside_a_block_counted(self):
        docs, counters = self.parse("</doc>\n" + jl(id="1", title="A", text="x") + "\n  </doc>\n")
        assert [d.doc_id for d in docs] == ["1"]
        assert counters["malformed_lines"] == 2

    def test_unclosed_block_at_eof_counted_after_the_documents_before_it(self):
        text = jl(id="1", title="A", text="x") + '\n<doc id="2" title="B">\nb\n' + jl(id="3", title="C", text="z") + "\n"
        docs, counters = self.parse(text)
        assert [d.doc_id for d in docs] == ["1"]  # the record is body text of the open block
        assert counters["malformed_lines"] == 1

    def test_open_tag_inside_a_block_counts_the_unclosed_one(self):
        docs, counters = self.parse('<doc id="1" title="A">\na\n<doc id="2" title="B">\nb\n</doc>\n')
        assert docs == [RawDocument("2", "B", "b\n")]
        assert counters["malformed_lines"] == 1

    def test_open_tag_must_be_the_whole_line(self):
        docs, counters = self.parse('<doc id="1" title="A"> text\n<document id="2">\n')
        assert docs == []
        assert counters["malformed_lines"] == 2


class TestUnwritableIdsAndTargets:
    """An id or a target must fit on one line of every file the pipeline writes."""

    @pytest.mark.parametrize("brk", sorted(LINE_BREAKS), ids=[f"U+{ord(c):04X}" for c in sorted(LINE_BREAKS)])
    def test_json_id_with_a_line_break_dropped_and_counted(self, brk):
        counters = Counter()
        stream = io.StringIO(jl(id=f"10{brk}01", title="A", text="x") + "\n" + jl(id="2", title="B", text="y") + "\n")
        assert [d.doc_id for d in parse_dump_stream(stream, counters=counters)] == ["2"]
        assert counters["unwritable_doc_id"] == 1
        assert counters["documents"] == 1

    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_plain_anchored_id_with_a_line_break_dropped_and_counted(self, brk):
        # the reader splits only at \n, \r and \r\n, so these reach the id attribute
        counters = Counter()
        text = f'<doc id="7{brk}1" title="Seven">\nbody\n</doc>\n<doc id="8" title="Eight">\nbody\n</doc>\n'
        docs = list(parse_dump_stream(io.StringIO(text), counters=counters))
        assert [d.doc_id for d in docs] == ["8"]
        assert counters["unwritable_doc_id"] == 1

    def test_tab_in_an_id_is_kept(self):
        # a doc_id header line holds a tab as it is
        docs = list(parse_dump_stream(io.StringIO(jl(id="10\t01", title="A", text="x") + "\n")))
        assert [d.doc_id for d in docs] == ["10\t01"]

    @pytest.mark.parametrize("href", ["Lon%0Adon", "Par%09is", "Ab%C2%85cd", "X%E2%80%A8Y", "A%0DB", "A%0BB"])
    def test_anchor_target_with_a_line_break_or_tab_stays_text(self, href):
        counters = Counter()
        text, links = extract_links(f'See <a href="{href}">here</a> and <a href="Paris">Paris</a>.', counters)
        assert text == "See here and Paris."
        assert [span.target for span in links] == ["Paris"]
        assert counters["unwritable_target"] == 1
        assert counters["malformed_markup"] == 0

    @pytest.mark.parametrize("target", ["Lon\ndon", "Par\tis", "X\u2029Y"])
    def test_wiki_target_with_a_line_break_or_tab_stays_text(self, target):
        counters = Counter()
        text, links = extract_links(f"[[{target}|city]] and [[{target}]]", counters)
        assert text == f"city and {target}"
        assert links == []
        assert counters["unwritable_target"] == 2


class TestExtractLinks:
    def test_wiki_link_offsets(self):
        # hand trace: "the " is chars 0..3, surface "Games" lands at 4..9
        text, links = extract_links("the [[2015 European Games|Games]] began")
        assert text == "the Games began"
        assert links == [LinkSpan(4, 9, "Games", "2015 European Games")]

    def test_no_links(self):
        text, links = extract_links("no links here")
        assert text == "no links here"
        assert links == []

    def test_anchor_form(self):
        text, links = extract_links('<a href="Bengkulu">Bengkulu</a>')
        assert text == "Bengkulu"
        assert links == [LinkSpan(0, 8, "Bengkulu", "Bengkulu")]

    def test_anchor_href_percent_decoded_underscores_kept(self):
        text, links = extract_links('<a href="Z%C3%BCrich">Zurich</a> and <a href="A_B">ab</a>')
        assert links[0].target == "Zürich"
        assert links[1].target == "A_B"

    def test_wiki_without_pipe_surface_defaults_to_target(self):
        text, links = extract_links("see [[Berlin]].")
        assert text == "see Berlin."
        assert links == [LinkSpan(4, 10, "Berlin", "Berlin")]

    def test_fragment_stripped_and_counted(self):
        counters = Counter()
        text, links = extract_links("[[Paris#History|history]]", counters)
        assert links[0].target == "Paris"
        assert counters["fragment_stripped"] == 1

    def test_fragment_only_target_degrades(self):
        counters = Counter()
        text, links = extract_links("[[#Section|here]]", counters)
        assert text == "here"
        assert links == []
        assert counters["malformed_markup"] == 1

    def test_unclosed_wiki_degrades(self):
        counters = Counter()
        text, links = extract_links("a [[Broken link", counters)
        assert text == "a Broken link"
        assert links == []
        assert counters["malformed_markup"] == 1

    def test_unclosed_anchor_degrades(self):
        counters = Counter()
        text, links = extract_links('x <a href="T">rest of it', counters)
        assert text == "x rest of it"
        assert links == []
        assert counters["malformed_markup"] == 1

    def test_nested_wiki_inner_link_survives(self):
        counters = Counter()
        text, links = extract_links("[[a[[b]]c]]", counters)
        assert [l.surface for l in links] == ["b"]
        assert counters["malformed_markup"] == 1

    @pytest.mark.parametrize(
        "markup,text",
        [("[[ |Paris]]", "Paris"), ('<a href="%20">x</a>', "x"), ("[[\u3000]]", "\u3000"), ("[[\x1f\xa0#s|y]]", "y")],
    )
    def test_all_whitespace_target_degrades(self, markup, text):
        # saved to the class cache, such a target would be a blank line, which the cache skips
        counters = Counter()
        assert extract_links(markup, counters) == (text, [])
        assert counters["malformed_markup"] == 1

    def test_empty_surface_degrades(self):
        counters = Counter()
        text, links = extract_links("[[Target|]]", counters)
        assert text == ""
        assert links == []
        assert counters["malformed_markup"] == 1

    def test_spans_address_output_text(self):
        markup = 'pre [[A|aa]] mid <a href="B">bb cc</a> post [[D]]'
        text, links = extract_links(markup)
        for span in links:
            assert text[span.start : span.end] == span.surface

    def test_idempotent_on_own_output(self):
        cases = [
            "the [[2015 European Games|Games]] began",
            "[[a[[b]]c]]",
            "a [[Broken link",
            'x <a href="T">no close',
            '<a href="X">a [[b]] c</a> tail',
            "mix [[One]] and <a href=\"Two\">two</a> ]] stray",
        ]
        for markup in cases:
            text1, links1 = extract_links(markup)
            text2, links2 = extract_links(text1)
            assert text2 == text1
            assert links2 == []


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.text(
                alphabet=st.characters(blacklist_characters="[]<>|#", blacklist_categories=("Cs",)),
                max_size=12,
            ),
            st.builds(
                lambda t, s: f"[[{t}|{s}]]",
                st.text(alphabet="abcXYZ ÉÜ_", min_size=1, max_size=8).filter(str.strip),
                st.text(alphabet="abc xyz", min_size=1, max_size=8),
            ),
            st.builds(
                lambda t, s: f'<a href="{t}">{s}</a>',
                st.text(alphabet="abcXYZ_%20", min_size=1, max_size=8),
                st.text(alphabet="abc xyz", min_size=1, max_size=8),
            ),
            st.just("[["),
            st.just("]]"),
            st.just('<a href="x">'),
        ),
        max_size=8,
    )
)
def test_extract_links_properties(pieces):
    markup = "".join(pieces)
    text, links = extract_links(markup)
    # spans address the output text and reproduce their surfaces
    previous_end = 0
    for span in links:
        assert 0 <= span.start < span.end <= len(text)
        assert text[span.start : span.end] == span.surface
        assert span.target
        assert span.start >= previous_end  # sorted, non-overlapping
        previous_end = span.end
    # idempotence: a second pass finds nothing to strip
    text2, links2 = extract_links(text)
    assert text2 == text
    assert links2 == []


# pieces of a link target: whitespace, "#" and percent escapes that decode to them
_TARGET_PIECES = st.sampled_from([" ", "\u3000", "\xa0", "\x1f", "a", "É", "_", "#", "%20", "%23", "%E3%80%80"])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.builds(
            lambda anchor, target, surface: f'<a href="{target}">{surface}</a>' if anchor else f"[[{target}|{surface}]]",
            st.booleans(),
            st.lists(_TARGET_PIECES, max_size=4).map("".join),
            st.sampled_from(["x", " y "]),
        ),
        max_size=6,
    )
)
@example(["[[ |Paris]]"])
@example(['<a href="%E3%80%80">x</a>'])
def test_every_extracted_target_reads_back_from_the_class_cache(tmp_path_factory, links):
    _, spans = extract_links(" ".join(links))
    written = {span.target: [] for span in spans}
    path = tmp_path_factory.mktemp("cache") / "cache.tsv"
    linker.save_catalog(linker.ClassCatalog(written), path)
    assert linker.load_catalog(path).entries == written


class TestCollectUniqueTargets:
    def doc(self, *targets: str) -> Document:
        spans = tuple(
            LinkSpan(i * 2, i * 2 + 1, "x", target) for i, target in enumerate(targets)
        )
        text = "x " * len(targets)
        return Document("d", "t", text, spans)

    def test_sort_and_dedup(self):
        docs = [self.doc("B", "A"), self.doc("B")]
        assert collect_unique_targets(docs) == ["A", "B"]

    def test_empty(self):
        assert collect_unique_targets([]) == []

    def test_code_point_order(self):
        docs = [self.doc("Éa", "Ea")]
        assert collect_unique_targets(docs) == ["Ea", "Éa"]


def test_build_document_invariants():
    raw_text = 'intro [[Paris|the city]] then <a href="Berlin">Berlin</a>.'
    doc = build_document(RawDocument("1", "T", raw_text))
    assert doc.text == "intro the city then Berlin."
    for span in doc.links:
        assert doc.text[span.start : span.end] == span.surface
    starts = [span.start for span in doc.links]
    assert starts == sorted(starts)
