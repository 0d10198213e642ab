"""Every module-level import of the package is used by its module, every
private module-level name is read by some module of the package, and every
public one by the package, a script or the benchmark.

No linter ships with the project, so this parses each module with ``ast``
and fails on an imported name that the module never reads, on a function,
class or constant whose name starts with an underscore that no module reads
outside its own definition, and on a public one that only tests name.
``__init__.py`` is skipped by the import check, and is no reader of public
names: its imports are the public re-exports.

It also pins the cold path: what a fresh ``import thermalent.cli`` leaves
out, and the package's public names, of which ``dynamics``'s load on first
access.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "thermalent"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_finds_unused_names():
    src = "import os\nimport numpy as np\nfrom math import inf, pi\nx = np.zeros(1) + pi\n"
    assert unused_imports(src) == [(1, "os"), (3, "inf")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


def _defined(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _reads(stmt) -> set:
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each module-level private name (one leading
    underscore) that no statement of any module reads, its own definition
    aside."""
    stmts = [(module, stmt) for module, source in sources.items()
             for stmt in ast.parse(source).body]
    unread = []
    for module, stmt in stmts:
        for name in _defined(stmt):
            if (name.startswith("_") and not name.startswith("__")
                    and not any(name in _reads(other) for _, other in stmts
                                if other is not stmt)):
                unread.append((module, stmt.lineno, name))
    return sorted(unread)


def test_finds_unread_private_names():
    a = "_A = 1\n_B = 2\ndef _f(n):\n    return _f(n - 1)\nclass _C:\n    pass\nx = _A\n"
    b = "from a import _B\n"
    assert unread_private_names({"a": a, "b": b}) == [("a", 3, "_f"), ("a", 5, "_C")]


def test_private_names_are_read():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def _first_line(stmt) -> int:
    return min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])


def unread_public_names(modules: dict, readers: list) -> list:
    """(module, line, name) of each module-level public name of ``modules``
    (module name to source) that no reader text and no module names as a
    whole word, its own definition aside."""
    unread = []
    for module, source in modules.items():
        lines = source.splitlines()
        for stmt in ast.parse(source).body:
            names = [n for n in _defined(stmt) if not n.startswith("_")]
            if not names:
                continue
            rest = "\n".join(lines[:_first_line(stmt) - 1] + lines[stmt.end_lineno:])
            texts = [rest] + [s for m, s in modules.items() if m != module] + readers
            unread += [(module, stmt.lineno, name) for name in names
                       if not any(re.search(rf"\b{name}\b", t) for t in texts)]
    return sorted(unread)


def test_finds_unread_public_names():
    a = ("X = 1\nY = 2\nZ = 3\n@staticmethod\ndef f(n):\n    return f(n - 1)\n"
         "class C:\n    pass\ndef _g():\n    return Y\n")
    b = "def h():\n    return 0\n"
    readers = ["print(X, 'h')  # Zs\n"]
    assert unread_public_names({"a": a, "b": b}, readers) == [
        ("a", 3, "Z"), ("a", 5, "f"), ("a", 7, "C")]


def test_public_names_are_read():
    """A public name that only tests read belongs in ``tests/conftest.py``.
    The acceptance criteria are the package's contract, so what they call
    counts as read."""
    modules = {p.name: p.read_text() for p in MODULES}
    readers = [p.read_text() for folder in ("scripts", "benchmark")
               for p in sorted((ROOT / folder).rglob("*.py"))]
    readers.append((ROOT / "tests" / "test_acceptance.py").read_text())
    assert unread_public_names(modules, readers) == []


#: the curve and tight-point map format: the cumulative sums, how the maps
#: are built, planned and applied, and the tile walk that feeds them; only
#: ``majorization`` reads these
MAP_INTERNALS = ("_cumulative_weights", "_tight_maps", "_map_plan", "_tight", "_take_levels",
                 "_covered", "_row_tiles")

#: the one dominance test: an origin's hinge plan and the tile test that
#: reads it; only ``majorization`` and ``geometry``'s volume stream read these
HINGE_INTERNALS = ("_hinge_plan", "_within_cone")

#: the level-ordering rules, zero weights included, and their encodings;
#: only ``core`` reads these
ORDERING_INTERNALS = ("_pair_bits", "_orders_from_bits", "ordering_codes")


def foreign_reads(sources: dict, owner: str, names) -> list:
    """(module, line, name) of each module-level statement of a module other
    than ``owner`` that reads one of ``names``."""
    return sorted((module, stmt.lineno, name)
                  for module, source in sources.items() if module != owner
                  for stmt in ast.parse(source).body
                  for name in sorted(_reads(stmt) & set(names)))


def test_finds_foreign_reads():
    owner = "from .core import x\ndef _m():\n    return 1\ny = _m()\n"
    a = "from .owner import _m\n"
    b = "from . import owner\ndef f():\n    return owner._m() + owner.z\n"
    c = "def _m():\n    return 2\n"
    sources = {"owner": owner, "a": a, "b": b, "c": c}
    assert foreign_reads(sources, "owner", ["_m"]) == [("a", 1, "_m"), ("b", 2, "_m")]


def test_map_internals_stay_in_majorization():
    """Only ``majorization`` builds cumulative sums and knows the tight-point
    map format; the other modules read a curve through ``curve`` and tight
    points through ``tight_point_tiles``, ``batch_tight_points`` and
    ``all_extreme_points``."""
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert foreign_reads(sources, "majorization.py", MAP_INTERNALS) == []


def test_one_dominance_test():
    """Outside ``majorization`` only ``geometry.volume_of`` (and the import
    that brings them) reads the hinge plan and its tile test; every other
    dominance question goes through ``batch_majorizes`` or
    ``thermo_majorizes``, and a new reader of the plan fails here."""
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    allowed = {("geometry.py", stmt.lineno) for stmt in ast.parse(sources["geometry.py"]).body
               if isinstance(stmt, ast.ImportFrom) and stmt.module == "majorization"
               or isinstance(stmt, ast.FunctionDef) and stmt.name == "volume_of"}
    reads = foreign_reads(sources, "majorization.py", HINGE_INTERNALS)
    assert {(module, line) for module, line, _ in reads} == allowed
    assert {name for *_, name in reads} == set(HINGE_INTERNALS)


def test_one_verdict_rule():
    """Only ``entangle`` names the strictness band TAU_F: every other yes/no
    answer reads it through ``entangle._margin``, and a new reader of the
    band fails here."""
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert foreign_reads(sources, "entangle.py", ["TAU_F"]) == []
    assert [m for m, source in sources.items() if m != "entangle.py" and "TAU_F" in source] == []


def test_ordering_rules_stay_in_core():
    """Only ``core`` compares levels; the other modules read orderings
    through ``batch_order``, ``_tile_levels`` and ``code_orders``."""
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert foreign_reads(sources, "core.py", ORDERING_INTERNALS) == []


#: modules that only ``jc``, ``mtp``, ``catalysis-demo``, a volume of more
#: than one worker or a hull export run, so a cold ``import thermalent.cli``
#: must not load them
NOT_ON_THE_COLD_PATH = ("thermalent.dynamics", "fractions", "decimal", "concurrent.futures",
                        "logging", "scipy")

#: the package's public names, in the order of ``thermalent.__all__``
PUBLIC = [
    "BetaOrdering", "BoundaryCloud", "CriticalTemps", "DensityMatrix", "GibbsContext",
    "HullMesh", "JCConfig", "JCResult", "MtpSearchResult", "PI_STAR", "PopVector",
    "ThermalCone", "ThermalizationSchedule", "ThermoCurve", "VolumeEstimate", "WitnessReport",
    "apply_schedule", "apply_subspace_rotation", "convex_hull_export", "core",
    "critical_temps_general", "critical_temps_thermal", "curve", "dynamics", "entangle",
    "extreme_point", "future_cone", "geometry", "is_thermally_entanglable", "jc_protocol",
    "majorization", "make_context", "max_negativity", "mtp_entangle_search", "pop_vector",
    "sample_simplex_array", "thermo_majorizes", "tne_boundary", "tne_bruteforce",
    "two_qubit_context", "verify_catalysis", "volume_of", "witness_f",
]


def fresh_python(code: str):
    """What ``code`` prints as JSON on its last line, run in a fresh
    interpreter that imports the package from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


def test_cold_cli_import_leaves_out_what_it_does_not_run():
    loaded = fresh_python("import json, sys, thermalent.cli\n"
                          f"print(json.dumps([m for m in {NOT_ON_THE_COLD_PATH!r} "
                          "if m in sys.modules]))")
    assert loaded == []


def test_public_names():
    import thermalent

    assert thermalent.__all__ == PUBLIC
    assert all(getattr(thermalent, name) is not None for name in thermalent.__all__)
    assert set(PUBLIC) <= set(dir(thermalent))
    assert thermalent.jc_protocol is thermalent.dynamics.jc_protocol
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        thermalent.nope
    assert fresh_python("from thermalent import dynamics\n"
                        "import json\nprint(json.dumps(dynamics.__name__))") == "thermalent.dynamics"
    star = fresh_python("from thermalent import *\nimport json\n"
                        "print(json.dumps(sorted(k for k in dir() if not k.startswith('_'))))")
    assert star == sorted(PUBLIC + ["json"])
