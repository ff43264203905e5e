"""The package's import rule, and the test helpers' use, read from source with ``ast``.

Every import in ``src/uner_pipeline`` names a standard-library module, the
package itself, or ``requests``, the one runtime dependency. ``requests`` and
``concurrent`` (the thread pool that sends requests) are imported only inside
a function body, so offline and eval runs, which never send a request, never
pay for their import; a run in a fresh interpreter shows that neither is
loaded. Every top-level name in ``tests/helpers.py`` is used by a test module,
directly or through another helper, so no oracle outlives its last test, and
no oracle uses a name imported from ``enrich`` or one of the functions the
other references check, so each reference is written from the README and not
from the code it checks. No ``cmd_*`` function in ``cli.py`` raises a usage
error, directly or through a ``cli`` function that raises one, so
``cli.resolve_inputs`` stays the one place where input files are checked.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES
from uner_pipeline import errors

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


# the functions that the references outside enrich check
CHECKED_FUNCTIONS = {"tokenize", "split_sentences", "project_annotations", "load_catalog", "iter_tsv"}


def banned_names(source: str) -> set[str]:
    """The names ``source`` imports from ``uner_pipeline.enrich``, ``enrich`` if it imports the module, and
    the names it imports one of ``CHECKED_FUNCTIONS`` under from any module of the package."""
    names: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom) or (node.module or "").partition(".")[0] != PACKAGE:
            continue
        for alias in node.names:
            if node.module == f"{PACKAGE}.enrich" or alias.name in {"enrich", *CHECKED_FUNCTIONS}:
                names.add(alias.asname or alias.name)
    return names


def oracles_using_banned_names(helpers_source: str) -> dict[str, list[str]]:
    """The ``oracle_`` helpers that read a banned name, directly or through other helpers, with the names."""
    definitions = helper_definitions(helpers_source)
    banned = banned_names(helpers_source)
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


def test_no_oracle_uses_a_banned_name():
    source = HELPERS.read_text(encoding="utf-8")
    assert oracles_using_banned_names(source) == {}
    assert {
        "oracle_enrich",
        "oracle_dictionary_pass",
        "oracle_local_pass",
        "oracle_tokenize",
        "oracle_split_sentences",
        "oracle_project_annotations",
        "oracle_load_catalog",
    } <= helper_definitions(source).keys()


def test_oracles_using_banned_names_follows_uses_through_other_helpers():
    helpers_source = (
        "from uner_pipeline.enrich import Dictionary, apply_dictionary as apply\n"
        "from uner_pipeline import enrich, mapping\n"
        "from uner_pipeline.mapping import iter_tsv as rows, parse_uner_label\n"
        "def _step(corpus):\n"
        "    return apply(corpus)\n"
        "def oracle_pass(corpus):\n"
        "    return _step(corpus)\n"
        "def oracle_order(surfaces):\n"
        "    return enrich.application_order(surfaces)\n"
        "def oracle_label(cls):\n"
        "    return mapping.map_to_uner(cls)\n"
        "def _lines(path):\n"
        "    return rows(path)\n"
        "def oracle_catalog(path):\n"
        "    return {key: parse_uner_label(value) for _, key, value in _lines(path)}\n"
        "def load_dictionary(path):\n"
        "    return Dictionary(rows(path))\n"
    )
    assert oracles_using_banned_names(helpers_source) == {
        "oracle_catalog": ["rows"],
        "oracle_order": ["enrich"],
        "oracle_pass": ["apply"],
    }


CLI = ROOT / "src" / PACKAGE / "cli.py"
# UsageError and its subclasses: the errors that exit 1
USAGE_ERRORS = {
    name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.UsageError)
}


def _raised_name(node: ast.Raise) -> str | None:
    """The class name a ``raise`` names, as ``X``, ``X(...)``, ``m.X`` or ``m.X(...)``."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return exc.id if isinstance(exc, ast.Name) else None


def usage_checks_in_commands(source: str) -> list[tuple[str, int]]:
    """(``cmd_*`` function, line) of each usage error it raises, or of each call to a top-level function that
    raises one itself."""
    functions = [node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)]

    def raises(function: ast.FunctionDef) -> list[ast.Raise]:
        return [node for node in ast.walk(function)
                if isinstance(node, ast.Raise) and node.exc is not None and _raised_name(node) in USAGE_ERRORS]

    raising = {function.name for function in functions if raises(function)}
    found = []
    for function in functions:
        if function.name.startswith("cmd_"):
            calls = [node for node in ast.walk(function) if isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Name) and node.func.id in raising]
            found.extend((function.name, node.lineno) for node in raises(function) + calls)
    return sorted(found)


def test_no_command_raises_a_usage_error():
    source = CLI.read_text(encoding="utf-8")
    assert "def cmd_pipeline(" in source
    assert usage_checks_in_commands(source) == []


def test_usage_checks_in_commands_sees_raises_and_checking_calls():
    source = (
        "from .errors import ConfigurationError, UsageError\n"
        "from . import errors\n"
        "def _file(path):\n"
        "    if not path.is_file():\n"
        "        raise UsageError(path)\n"
        "    return path\n"
        "def cmd_stats(config, path):\n"
        "    _file(path)\n"
        "def cmd_enrich(config):\n"
        "    if not config.experiments:\n"
        "        raise ConfigurationError('none')\n"
        "    raise errors.UsageError\n"
        "def cmd_link(config):\n"
        "    raise NetworkExhaustedError('down')\n"
    )
    assert usage_checks_in_commands(source) == [("cmd_enrich", 11), ("cmd_enrich", 12), ("cmd_stats", 8)]
