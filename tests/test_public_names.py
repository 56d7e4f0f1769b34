"""Every public name in ``src/repro`` has a caller outside the tests.

The scan walks ``src/repro`` with :mod:`ast` and collects the public names:
top-level functions and classes, and the methods (properties included) of
public classes.  A name has a caller when some ``.py`` file under
``src/repro``, ``examples/`` or ``benchmarks/`` names it as an ``ast.Name``,
an ``ast.Attribute`` attribute, an import alias or a string constant equal
to the identifier.  The imports and ``__all__`` of a package ``__init__.py``
are re-exports, not callers.  A name that only tests use belongs under
``tests/``; one nothing uses goes.

``ALLOWLIST`` exempts a few names, each with its reason; an entry that is no
longer defined, or that has gained a caller, fails the check too.  (An import
that is a name's only reference is an unused import, which the lint gate
catches.)
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLERS = (PACKAGE, ROOT / "examples", ROOT / "benchmarks")

ALLOWLIST = {
    "mpisim.datatypes:NamedType.Create_subarray":
        "mpi4py datatype surface; the engine builds subarrays directly",
    "mpisim.datatypes:Datatype.Commit": "mpi4py datatype surface",
    "mpisim.datatypes:Datatype.Free": "mpi4py datatype surface",
    "mpisim.datatypes:NamedType.Get_size": "mpi4py datatype surface",
    "mpisim.comm:Communicator.Iprobe":
        "the probe the drain and leak tests use; it reads Fabric mailboxes",
    "bench.table2:report_executed":
        "EXPERIMENTS.md regenerate command, diffed in CI against table2_executed.txt",
    "jpeg.encoder:encode_gray": "432 rows of tests/jpeg/golden_sha256.json are gray encodes",
}


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def defined_names(package: Path) -> dict[str, str]:
    """``module:qualname`` -> bare name, for every public name in *package*."""
    found: dict[str, str] = {}
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).with_suffix("")
        module = ".".join(rel.parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not _is_public(node.name):
                continue
            found[f"{module}:{node.name}"] = node.name
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and _is_public(member.name)):
                    found[f"{module}:{node.name}.{member.name}"] = member.name
    return found


def _is_reexport(node: ast.stmt) -> bool:
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
               else [])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def named_identifiers(roots, package: Path) -> set[str]:
    """Every identifier that some file under *roots* names."""
    names: set[str] = set()
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            body = tree.body
            if path.name == "__init__.py" and path.is_relative_to(package):
                body = [node for node in body if not _is_reexport(node)]
            for stmt in body:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name):
                        names.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        names.add(node.attr)
                    elif isinstance(node, ast.alias):
                        names.update(node.name.split("."))
                        if node.asname:
                            names.add(node.asname)
                    elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                          and node.value.isidentifier()):
                        names.add(node.value)
    return names


def scan(package: Path, roots, allowlist) -> tuple[list[str], list[str]]:
    """``(uncalled, stale)``: public names nothing names, and allowlist
    entries that are undefined or have a caller."""
    defined = defined_names(package)
    named = named_identifiers(roots, package)
    uncalled = sorted(q for q, name in defined.items()
                      if name not in named and q not in allowlist)
    stale = sorted(q for q in allowlist if q not in defined or defined[q] in named)
    return uncalled, stale


def test_every_public_name_has_a_caller():
    uncalled, stale = scan(PACKAGE, CALLERS, ALLOWLIST)
    assert not uncalled, "public names without a caller:\n  " + "\n  ".join(uncalled)
    assert not stale, "stale ALLOWLIST entries:\n  " + "\n  ".join(stale)


def test_allowlist_is_short_and_explained():
    assert len(ALLOWLIST) <= 10
    assert all(reason.strip() for reason in ALLOWLIST.values())


def test_scan_fails_on_planted_names(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from .mod import exported, used\n__all__ = ['exported', 'used']\n")
    (pkg / "mod.py").write_text(
        "def used():\n    return 1\n\n"
        "def planted():\n    return 2\n\n"
        "def exported():\n    return 3\n\n"
        "class Kept:\n"
        "    def method(self):\n        return used()\n"
        "    @property\n    def size(self):\n        return 0\n")
    examples = tmp_path / "examples"
    examples.mkdir()
    (examples / "demo.py").write_text("from pkg import Kept\nKept().method()\n")
    allowlist = {"mod:gone": "undefined", "mod:Kept.method": "has a caller"}

    uncalled, stale = scan(pkg, (pkg, examples), allowlist)

    assert uncalled == ["mod:Kept.size", "mod:exported", "mod:planted"]
    assert stale == ["mod:Kept.method", "mod:gone"]
