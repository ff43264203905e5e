"""The package's import rule, read from its source with ``ast``.

Every import in ``src/uner_pipeline`` names a standard-library module, the
package itself, or ``requests``, the one runtime dependency. ``requests`` is
imported only inside a function body, so offline and eval runs, which never
send a request, never pay for its import.
"""

import ast
import sys
from pathlib import Path

PACKAGE = "uner_pipeline"
SOURCES = sorted((Path(__file__).parent.parent / "src" / PACKAGE).glob("*.py"))
THIRD_PARTY = "requests"


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


def test_requests_is_imported_only_inside_functions():
    requests_sites = [site for site in package_sites() if site[1] == THIRD_PARTY]
    assert requests_sites, "the linker's lazy import of requests was not found"
    assert [site for site in requests_sites if not site[3]] == []


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
