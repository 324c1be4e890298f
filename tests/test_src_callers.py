"""The package ships only what a command runs: every public module-level
function or class in ``src/mpoxrf`` is used by another definition of the
package, exported in ``mpoxrf.__all__``, or allowed below with its reason.
Fixtures and test oracles live in ``tests/support.py``."""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mpoxrf"

#: Public names kept without a caller in the package, and why.
ALLOWED = {
    # the in-memory TPXE reader that the fuzz properties drive
    "parse_events": "events",
    # the bench's span table times it as events.parse_s
    "parse_events_file": "events",
}


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}


def _exported(modules):
    for node in modules["__init__"].body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _public_definitions(modules):
    """(module, name) -> node of each public top-level function or class."""
    return {
        (module, node.name): node
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def _reads(tree):
    """How often each name is read in ``tree``; an import is not a read."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _uncalled(modules):
    """Public definitions whose name is read nowhere but in themselves."""
    reads = sum((_reads(tree) for tree in modules.values()), Counter())
    return sorted(
        (module, name)
        for (module, name), node in _public_definitions(modules).items()
        if reads[name] == _reads(node)[name]
    )


def test_every_public_definition_has_a_caller():
    modules = _modules()
    exported = _exported(modules)
    stray = [
        f"{module}.{name}"
        for module, name in _uncalled(modules)
        if name not in exported and ALLOWED.get(name) != module
    ]
    assert not stray, (
        f"{', '.join(stray)}: no command reaches these; move a fixture or "
        "oracle to tests/support.py, or delete it"
    )


def test_allowed_names_are_still_uncalled():
    # an entry whose name is gone or has gained a caller is stale
    modules = _modules()
    uncalled = set(_uncalled(modules))
    assert {(module, name) for name, module in ALLOWED.items()} <= uncalled


def test_star_import_resolves_all():
    # every name that ``from mpoxrf import *`` promises is defined
    import mpoxrf

    namespace = {}
    exec("from mpoxrf import *", namespace)
    assert len(set(mpoxrf.__all__)) == len(mpoxrf.__all__)
    for name in mpoxrf.__all__:
        assert namespace[name] is getattr(mpoxrf, name)
