import itertools
import re
from collections import Counter

import pytest

from helpers import load_dictionary
from uner_pipeline.enrich import load_kg_map
from uner_pipeline.errors import DataError, LabelParseError
from uner_pipeline.linker import load_catalog
from uner_pipeline.mapping import (
    EquivalenceMap,
    PriorityMap,
    default_equivalence_path,
    default_priority_path,
    label_for_classes,
    load_equivalence_map,
    load_mapping_tables,
    load_priority_map,
    map_to_uner,
    parse_uner_label,
    select_class,
)

# the worked entity: classes with priorities Event=2, SoccerTournament=4,
# SocietalEvent=2, SportsEvent=4, Thing=1
WORKED_CLASSES = [
    "dbo:Event",
    "dbo:SoccerTournament",
    "dbo:SocietalEvent",
    "dbo:SportsEvent",
    "owl:Thing",
]
WORKED_PRIORITIES = PriorityMap(
    {
        "dbo:Event": 2,
        "dbo:SoccerTournament": 4,
        "dbo:SocietalEvent": 2,
        "dbo:SportsEvent": 4,
        "owl:Thing": 1,
    }
)


class TestParseUnerLabel:
    def test_four_level_label(self):
        label = "Name-Event-Natural_Phenomenon-Earthquake"
        assert parse_uner_label(label) is label

    def test_single_level(self):
        assert parse_uner_label("Name") == "Name"

    @pytest.mark.parametrize(
        "label, message",
        [
            ("Name--Event", "an empty segment at position 5 (segment 2)"),
            ("Name-Person\tX", "whitespace in segment 'Person\\tX' at position 5 (segment 2)"),
            ("Name-New York", "whitespace in segment 'New York' at position 5 (segment 2)"),
            ("Name-Location-GPE-City\u00a0", "whitespace in segment 'City\\xa0' at position 18 (segment 4)"),
            (" Name", "whitespace in segment ' Name' at position 0 (segment 1)"),
        ],
    )
    def test_bad_segment_rejected(self, label, message):
        with pytest.raises(LabelParseError, match=re.escape(message)):
            parse_uner_label(label)

    def test_empty_segment_rejected(self):
        with pytest.raises(LabelParseError, match="empty segment"):
            parse_uner_label("Name--Event")

    def test_too_many_segments_rejected(self):
        with pytest.raises(LabelParseError, match="5 segments"):
            parse_uner_label("Name-A-B-C-D")

    def test_unknown_level1_rejected(self):
        with pytest.raises(LabelParseError, match="level-1"):
            parse_uner_label("Foo-Event")

    def test_empty_string_rejected(self):
        with pytest.raises(LabelParseError):
            parse_uner_label("")

    def test_time_and_numerical_roots_accepted(self):
        assert parse_uner_label("Time_Expression-Timex-Era") == "Time_Expression-Timex-Era"
        assert parse_uner_label("Numerical_Expression-Unit") == "Numerical_Expression-Unit"


class TestSelectClass:
    def test_worked_entity_selects_soccer_tournament(self):
        assert select_class(WORKED_CLASSES, WORKED_PRIORITIES) == "dbo:SoccerTournament"

    def test_tie_takes_first_in_list(self):
        priorities = PriorityMap({"dbo:SocietalEvent": 2, "dbo:Event": 2})
        assert select_class(["dbo:SocietalEvent", "dbo:Event"], priorities) == "dbo:SocietalEvent"
        assert select_class(["dbo:Event", "dbo:SocietalEvent"], priorities) == "dbo:Event"

    def test_empty_list(self):
        assert select_class([], WORKED_PRIORITIES) is None

    def test_unknown_classes_skipped_and_counted(self):
        counters = Counter()
        result = select_class(["x:Unknown", "dbo:Event"], WORKED_PRIORITIES, counters)
        assert result == "dbo:Event"
        assert counters["class_without_priority"] == 1

    def test_all_unknown_gives_none(self):
        assert select_class(["x:A", "x:B"], WORKED_PRIORITIES) is None

    def test_result_always_member_of_input(self):
        for classes in itertools.permutations(WORKED_CLASSES, 3):
            result = select_class(list(classes), WORKED_PRIORITIES)
            assert result in classes

    def test_permutation_invariance_of_max_order(self):
        # moving non-maximal elements around never changes the winner as long
        # as the relative order of maximal-priority elements is unchanged
        priorities = PriorityMap({"a": 4, "b": 4, "c": 2, "d": 1, "e": 2})
        base = ["a", "c", "b", "d", "e"]
        for perm in itertools.permutations(base):
            maximal_order = [x for x in perm if priorities.entries[x] == 4]
            expected = maximal_order[0]
            assert select_class(list(perm), priorities) == expected


class TestMapToUner:
    def make_equivalences(self):
        return EquivalenceMap(
            {
                "dbo:SportsEvent": parse_uner_label("Name-Event-Occasion-Game"),
                "owl:Thing": None,
            }
        )

    def test_mapped_class(self):
        label = map_to_uner("dbo:SportsEvent", self.make_equivalences())
        assert label == "Name-Event-Occasion-Game"

    def test_null_class(self):
        assert map_to_uner("owl:Thing", self.make_equivalences()) is None

    def test_unknown_class_counted(self):
        counters = Counter()
        assert map_to_uner("unknown:Foo", self.make_equivalences(), counters) is None
        assert counters["class_not_in_equivalence"] == 1


class TestLoaders:
    def test_load_round(self, tmp_path):
        eq = tmp_path / "eq.tsv"
        eq.write_text(
            "# comment\n"
            "dbo:SoccerTournament\tName-Event-Occasion-Game\n"
            "owl:Thing\tNULL\n",
            encoding="utf-8",
        )
        loaded = load_equivalence_map(eq)
        assert loaded.entries["dbo:SoccerTournament"] == "Name-Event-Occasion-Game"
        assert loaded.entries["owl:Thing"] is None

    def test_duplicate_class_rejected(self, tmp_path):
        eq = tmp_path / "eq.tsv"
        eq.write_text("dbo:Event\tName-Event\ndbo:Event\tNULL\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            load_equivalence_map(eq)

    def test_bad_label_rejected_at_load(self, tmp_path):
        eq = tmp_path / "eq.tsv"
        # a third column would otherwise reach the CoNLL tag as a tab
        for bad in ("Bogus-Event", "Name-Person\tX", "Name-New York"):
            eq.write_text(f"dbo:Event\t{bad}\n", encoding="utf-8")
            with pytest.raises(DataError, match=f"^{re.escape(str(eq))}:1: label "):
                load_equivalence_map(eq)

    def test_priority_must_be_positive_integer(self, tmp_path):
        pri = tmp_path / "pri.tsv"
        pri.write_text("dbo:Event\t0\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_priority_map(pri)
        pri.write_text("dbo:Event\ttwo\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_priority_map(pri)

    def test_missing_priority_named_in_error(self, tmp_path):
        eq = tmp_path / "eq.tsv"
        pri = tmp_path / "pri.tsv"
        eq.write_text("dbo:Event\tName-Event\ndbo:City\tName-Location-GPE-City\n", encoding="utf-8")
        pri.write_text("dbo:Event\t2\n", encoding="utf-8")
        with pytest.raises(DataError, match="dbo:City"):
            load_mapping_tables(eq, pri)


# loader -> (a valid row, a row its own value rules reject)
TSV_LOADERS = {
    "catalog": (load_catalog, "Alpha\tdbo:Event,owl:Thing", "Alpha\tdbo:City"),
    "dictionary": (load_dictionary, "Alpha Beta\tName-Person", "Gamma\tBogus-Label"),
    "kg_map": (load_kg_map, "Alpha\tdbo:City", "Gamma\t"),
    "equivalence": (load_equivalence_map, "dbo:Event\tName-Event", "dbo:City\tName--City"),
    "priority": (load_priority_map, "dbo:Event\t2", "dbo:City\ttwo"),
}


@pytest.mark.parametrize("name", TSV_LOADERS)
class TestTsvLoaders:
    """The line rules every TSV table shares, checked through each loader."""

    def load(self, tmp_path, name, text, newline="\n"):
        """The loaded entries; the kg map is a plain dict, the other tables hold one."""
        path = tmp_path / f"{name}.tsv"
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        loaded = TSV_LOADERS[name][0](path)
        return loaded if isinstance(loaded, dict) else loaded.entries

    def test_comment_and_blank_lines_skipped(self, tmp_path, name):
        row = TSV_LOADERS[name][1]
        plain = self.load(tmp_path, name, row + "\n")
        padded = self.load(tmp_path, name, "# header\n\n   \n\t# tab-led\n" + row + "\n  # indented\n")
        assert padded == plain and plain

    def test_crlf_loads_like_lf(self, tmp_path, name):
        row = TSV_LOADERS[name][1]
        lf = self.load(tmp_path, name, "# header\n" + row + "\n")
        crlf = self.load(tmp_path, name, "# header\n" + row + "\n", newline="\r\n")
        assert crlf == lf

    @pytest.mark.parametrize("bad_line", ["no tab at all", "\tvalue without a key"])
    def test_malformed_line_names_path_and_line(self, tmp_path, name, bad_line):
        path = tmp_path / f"{name}.tsv"
        path.write_text(f"# header\n{TSV_LOADERS[name][1]}\n{bad_line}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: "):
            TSV_LOADERS[name][0](path)

    def test_rejected_value_names_path_and_line(self, tmp_path, name):
        _, row, bad_row = TSV_LOADERS[name]
        path = tmp_path / f"{name}.tsv"
        path.write_text(f"{row}\n\n{bad_row}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}:3: "):
            TSV_LOADERS[name][0](path)


class TestShippedTables:
    def test_tables_load_and_cross_validate(self):
        equivalences, priorities = load_mapping_tables(
            default_equivalence_path(), default_priority_path()
        )
        assert set(equivalences.entries) <= set(priorities.entries)

    def test_exactly_124_distinct_labels(self):
        equivalences = load_equivalence_map(default_equivalence_path())
        assert len(equivalences.distinct_labels()) == 124

    def test_worked_entity_against_shipped_tables(self):
        equivalences, priorities = load_mapping_tables(
            default_equivalence_path(), default_priority_path()
        )
        for cls, expected in WORKED_PRIORITIES.entries.items():
            assert priorities.entries[cls] == expected
        label = label_for_classes(WORKED_CLASSES, equivalences, priorities)
        assert label == "Name-Event-Occasion-Game"

    def test_pinned_equivalences(self):
        equivalences = load_equivalence_map(default_equivalence_path())
        pinned = {
            "dbo:SportsEvent": "Name-Event-Occasion-Game",
            "dbo:City": "Name-Location-GPE-City",
            "dbo:EthnicGroup": "Name-Organization-Ethnic_Group_other",
            "dbo:Religion": "Name-Product-Doctrine_Method-Religion",
            "dbo:Company": "Name-Organization-Corporation-Company",
            "dbo:Award": "Name-Product-Award",
            "dbo:Person": "Name-Person-Name",
        }
        for cls, label in pinned.items():
            assert equivalences.entries[cls] == label
        assert equivalences.entries["owl:Thing"] is None
