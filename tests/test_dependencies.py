"""The package's import rule, and the test helpers' use, read from source with ``ast``.

Every import in ``src/uner_pipeline`` names a standard-library module, the
package itself, or ``requests``, the one runtime dependency. ``requests`` and
``concurrent`` (the thread pool that sends requests) are imported only inside
a function body, so offline and eval runs, which never send a request, never
pay for their import; a run in a fresh interpreter shows that neither is
loaded. Every top-level name in ``tests/helpers.py`` is used by a test module,
directly or through another helper, so no oracle outlives its last test, and
no oracle uses a name imported from ``enrich``, so the enrich reference is
written from the README and not from the code it checks.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES

PACKAGE = "uner_pipeline"
ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / PACKAGE).glob("*.py"))
THIRD_PARTY = "requests"
# imported only inside a function: the modules that only a run with an endpoint needs
LAZY = (THIRD_PARTY, "concurrent")


def import_sites(source: str) -> list[tuple[str, int, bool]]:
    """(top-level module, line, inside a function body) for each import.

    A relative import is reported as the package itself.
    """
    sites: list[tuple[str, int, bool]] = []

    def visit(node: ast.AST, in_function: bool) -> None:
        if isinstance(node, ast.Import):
            sites.extend((alias.name.split(".")[0], node.lineno, in_function) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = PACKAGE if node.level else node.module.split(".")[0]
            sites.append((module, node.lineno, in_function))
        in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(ast.parse(source), False)
    return sites


def package_sites() -> list[tuple[str, str, int, bool]]:
    return [
        (path.name, module, line, in_function)
        for path in SOURCES
        for module, line, in_function in import_sites(path.read_text(encoding="utf-8"))
    ]


def test_imports_are_stdlib_the_package_or_requests():
    allowed = set(sys.stdlib_module_names) | {PACKAGE, THIRD_PARTY}
    offenders = [site for site in package_sites() if site[1] not in allowed]
    assert offenders == []


def test_requests_and_the_thread_pool_are_imported_only_inside_functions():
    sites = package_sites()
    for module in LAZY:
        assert any(site[1] == module for site in sites), f"the linker's lazy import of {module} was not found"
    assert [site for site in sites if site[1] in LAZY and not site[3]] == []


# run the command line in a fresh interpreter, then name the lazy modules it loaded
RUN_AND_LIST = (
    "import sys\n"
    "from uner_pipeline import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print('loaded', code, *sorted(m for m in ('requests', 'concurrent.futures') if m in sys.modules))\n"
)


def loaded_after(*argv: str) -> str:
    """The last stdout line of a fresh interpreter that ran ``uner-pipeline argv``."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    result = subprocess.run(
        [sys.executable, "-c", RUN_AND_LIST, *argv], capture_output=True, text=True, env=env, check=True
    )
    return result.stdout.splitlines()[-1]


def test_offline_pipeline_and_eval_load_neither_requests_nor_the_thread_pool(tmp_path):
    out = tmp_path / "run"
    pipeline = ["pipeline", "--input", str(FIXTURES / "dump.jsonl"), "--cache", str(FIXTURES / "class_cache.tsv")]
    assert loaded_after(*pipeline, "--offline", "--out", str(out)) == "loaded 0"
    corpus = str(out / "corpus.conll")
    assert loaded_after("eval", "--out", str(tmp_path / "eval"), corpus, corpus) == "loaded 0"


def test_import_sites_sees_module_level_and_nested_imports():
    source = (
        "import os.path\n"
        "from . import mapping\n"
        "from requests import Session\n"
        "class Client:\n"
        "    def __init__(self):\n"
        "        import requests\n"
    )
    assert import_sites(source) == [
        ("os", 1, False),
        (PACKAGE, 2, False),
        ("requests", 3, False),
        ("requests", 6, True),
    ]


HELPERS = Path(__file__).parent / "helpers.py"
TEST_MODULES = sorted(Path(__file__).parent.glob("test_*.py"))


def helper_definitions(source: str) -> dict[str, set[str]]:
    """Each top-level name that ``source`` defines, with the names its definition reads."""
    definitions: dict[str, set[str]] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        reads = {child.id for child in ast.walk(node) if isinstance(child, ast.Name)}
        for name in names:
            definitions[name] = reads
    return definitions


def names_from_helpers(source: str) -> set[str]:
    """The names a test module imports from ``helpers`` or reads as ``helpers.<name>``."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "helpers":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "helpers":
            names.add(node.attr)
    return names


def reached(definitions: dict[str, set[str]], names: set[str]) -> set[str]:
    """The helpers that ``names`` name, and those they read, directly or through another helper."""
    found: set[str] = set()
    pending = set(names)
    while pending:
        name = pending.pop()
        if name in definitions and name not in found:
            found.add(name)
            pending |= definitions[name]
    return found


def unused_helpers(helpers_source: str, test_sources: list[str]) -> list[str]:
    """The top-level names of the helpers that no test module reaches, directly or through another helper."""
    definitions = helper_definitions(helpers_source)
    return sorted(definitions.keys() - reached(definitions, set().union(*map(names_from_helpers, test_sources))))


def names_from_enrich(source: str) -> set[str]:
    """The names ``source`` imports from ``uner_pipeline.enrich``, and ``enrich`` if it imports the module."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == f"{PACKAGE}.enrich":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == PACKAGE:
            names.update(alias.asname or alias.name for alias in node.names if alias.name == "enrich")
    return names


def oracles_using_enrich(helpers_source: str) -> dict[str, list[str]]:
    """The ``oracle_`` helpers that read names from ``enrich``, directly or through other helpers, with the names."""
    definitions = helper_definitions(helpers_source)
    banned = names_from_enrich(helpers_source)
    uses: dict[str, list[str]] = {}
    for name in definitions:
        if name.lower().startswith("oracle_"):
            reads = set().union(*(definitions[helper] for helper in reached(definitions, {name})))
            if reads & banned:
                uses[name] = sorted(reads & banned)
    return uses


def test_every_helper_is_used_by_a_test_module():
    test_sources = [path.read_text(encoding="utf-8") for path in TEST_MODULES]
    assert "oracle_lock_step_align" in helper_definitions(HELPERS.read_text(encoding="utf-8"))
    assert unused_helpers(HELPERS.read_text(encoding="utf-8"), test_sources) == []


def test_unused_helpers_follows_uses_through_other_helpers():
    helpers_source = (
        "LIMIT = 3\n"
        "def _step(x):\n"
        "    return x + LIMIT\n"
        "def oracle(x):\n"
        "    return _step(x)\n"
        "def dead_oracle(x):\n"
        "    return oracle(x)\n"
        "class Record:\n"
        "    pass\n"
        "UNUSED: int = 1\n"
    )
    tests = ["from helpers import oracle\n", "import helpers\nhelpers.Record()\n"]
    assert unused_helpers(helpers_source, tests) == ["UNUSED", "dead_oracle"]
    assert unused_helpers(helpers_source, tests[:1]) == ["Record", "UNUSED", "dead_oracle"]


def test_no_oracle_uses_a_name_imported_from_enrich():
    source = HELPERS.read_text(encoding="utf-8")
    assert oracles_using_enrich(source) == {}
    assert {"oracle_enrich", "oracle_dictionary_pass", "oracle_local_pass"} <= helper_definitions(source).keys()


def test_oracles_using_enrich_follows_uses_through_other_helpers():
    helpers_source = (
        "from uner_pipeline.enrich import Dictionary, apply_dictionary as apply\n"
        "from uner_pipeline import enrich, mapping\n"
        "def _step(corpus):\n"
        "    return apply(corpus)\n"
        "def oracle_pass(corpus):\n"
        "    return _step(corpus)\n"
        "def oracle_order(surfaces):\n"
        "    return enrich.application_order(surfaces)\n"
        "def oracle_label(cls):\n"
        "    return mapping.map_to_uner(cls)\n"
        "def load_dictionary(path):\n"
        "    return Dictionary()\n"
    )
    assert oracles_using_enrich(helpers_source) == {"oracle_order": ["enrich"], "oracle_pass": ["apply"]}
