"""Nothing is kept that nothing reads.

Two checks over the library, matched by name through the syntax tree:

* every public function, class and method of ``src/repro`` is named
  somewhere in ``src/``, ``benchmarks/`` or ``examples/`` outside its
  own definition.  An identifier, an attribute or a string literal equal
  to the name is a use (a string covers ``getattr`` dispatch); an import
  or an ``__all__`` entry is not.  Being matched by name, another
  definition, a parameter or a keyword argument of the same name counts
  as a use too.
* every field of a ``*Stats`` class in ``src/repro`` is read somewhere,
  the tests included: by an attribute read, or by a string equal to its
  name (a ``FIELDS`` tuple, ``getattr``, a dump key).  A field only ever
  incremented is a counter nobody reads.  An ``asdict`` dump of the
  record that holds the class reads every field, but the check cannot
  tell which record a call receives: such a field is allowlisted, with
  the dump that reads it.

A name or field that has to stay without a reader goes on an allowlist
below, with the reason it stays; an entry that gains a reader fails the
check until it is dropped.
"""

import ast
import pathlib
from collections import defaultdict

REPO = pathlib.Path(__file__).resolve().parent.parent
CALLERS = ("src", "benchmarks", "examples")

#: public names kept without a caller outside the tests, and why
UNCALLED_ALLOWED = {
    "MappingTable.live_fraction": "zombie-space reclaim (ROADMAP 4(b)) "
    "selects merged runs by it",
    "write_msr": "the streaming MSR parser (ROADMAP 6) round-trips through it",
    "Simulator.pending_foreground": "tests/test_engine_differential.py "
    "compares it against tests/reference_engine.py",
}

#: ``Class.field`` counters kept without a reader the check can see, and why
_DUMPED = ("the cluster RunRecord's `stats` section dumps it through "
           "`asdict(outcome)` in bench/cluster.py")
UNREAD_ALLOWED = {
    "ClusterStats.read_bytes": _DUMPED,
    "ClusterStats.written_bytes": _DUMPED,
}


def _trees(roots):
    for root in roots:
        for path in sorted((REPO / root).rglob("*.py")):
            yield root, path, ast.parse(path.read_text(), str(path))


def _dunder_all(tree):
    """Nodes inside module-level ``__all__`` assignments."""
    inside = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            inside.update(map(id, ast.walk(node)))
    return inside


def _mentions(tree):
    """``(name, line)`` of every identifier and string literal: a name, an
    attribute, a definition, a parameter, a keyword argument.

    Import aliases are not visited, so an import is never a mention;
    ``__all__`` entries are skipped explicitly.  Expressions inside
    f-strings are parsed like any other, on every Python version.
    """
    skip = _dunder_all(tree)
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            yield node.arg, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def _public_defs(tree):
    """``(qualified name, name, first line, last line)`` of top-level
    public functions and classes and of the public methods of those
    classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        members = [(node.name, node)]
        if isinstance(node, ast.ClassDef):
            members += [
                (f"{node.name}.{m.name}", m) for m in node.body
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
            ]
        for qual, m in members:
            first = min([m.lineno] + [d.lineno for d in m.decorator_list])
            yield qual, m.name, first, m.end_lineno


def uncalled_names():
    """Public names of ``src/repro`` named nowhere outside their own
    definition in ``src/``, ``benchmarks/`` or ``examples/``."""
    uses = defaultdict(list)
    defs = []
    for root, path, tree in _trees(CALLERS):
        for name, line in _mentions(tree):
            uses[name].append((path, line))
        if root == "src":
            defs += [(path, *d) for d in _public_defs(tree)]
    return sorted(
        qual for path, qual, name, first, last in defs
        if all(p == path and first <= line <= last for p, line in uses[name])
    )


def unread_fields():
    """``Class.field`` of every ``*Stats`` field in ``src/repro`` that no
    attribute read or string names, in the tests included."""
    read = set()
    fields = []
    for root, path, tree in _trees(CALLERS + ("tests",)):
        if path == pathlib.Path(__file__).resolve():
            continue  # the allowlists name fields without reading them
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
            elif (root == "src" and isinstance(node, ast.ClassDef)
                  and node.name.endswith("Stats")):
                fields += [
                    (node.name, st.target.id) for st in node.body
                    if isinstance(st, ast.AnnAssign)
                    and isinstance(st.target, ast.Name)
                ]
    return sorted(f"{cls}.{f}" for cls, f in fields if f not in read)


def _check(found, allowed, dead, stale):
    new = sorted(found - allowed.keys())
    assert not new, f"{dead}: {new}"
    gone = sorted(allowed.keys() - found)
    assert not gone, f"{stale}: {gone}"


def test_every_public_name_has_a_caller_outside_tests():
    _check(
        set(uncalled_names()), UNCALLED_ALLOWED,
        "public names with no caller outside tests (use each where it is "
        "needed, or delete it)",
        "allowlisted names that have a caller now (drop them from the list)",
    )


def test_every_stats_field_has_a_reader():
    _check(
        set(unread_fields()), UNREAD_ALLOWED,
        "counters that are only ever written (delete each, with its "
        "increments)",
        "allowlisted fields that have a reader now (drop them from the list)",
    )
