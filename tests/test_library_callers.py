"""Library code has a caller outside the tests.

A top-level public function or class of ``src/qtoda/*.py`` must be
referenced in ``src/``, ``scripts/`` or ``bench/`` outside its own
definition: as a name, an attribute or an import, or by its string name
in ``bench/tracing.py``'s ``LAYERS``, which looks functions up by name.
Test files do not count, and neither do the re-exports of
``qtoda/__init__.py``.  Code that only the tests call lives in the test
file that uses it, as an oracle.
"""

import ast
from functools import lru_cache
from pathlib import Path

import qtoda

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qtoda"

# public names kept in src/ without such a caller, each for a reason
EXEMPT = {
    "boundary_gauge": "solves the w-fixing gauge of criterion 07c; a gauge check would wire it in",
    "gauge_parts": "reads (a, p) off a boundary_gauge result, for that gauge check",
    "disk_seed_from_word": "the disk seed that criterion 09 glues into the cylinder seed",
    "amalgamate_pairs": "the gluing of criterion 09's disk amalgamation claim",
    "standard_word": "exported by qtoda",
}


def _layer_names(text: str) -> set[str]:
    """The attribute names of ``LAYERS`` in the text of a tracing module."""
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return {row[2] for row in ast.literal_eval(node.value)}
    return set()


@lru_cache(maxsize=None)
def _parse(text: str) -> ast.Module:
    return ast.parse(text)


@lru_cache(maxsize=None)
def _references(text: str, module: str) -> dict[str, set]:
    """Name -> the (module, top-level definition or None) places that
    reference it: names, attributes and imported names."""
    refs: dict[str, set] = {}
    for top in _parse(text).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            else:
                continue
            for name in names:
                refs.setdefault(name, set()).add((module, owner))
    return refs


def uncalled_public_names(library: dict[str, str], callers: dict[str, str], layers: set[str]) -> list[str]:
    """The top-level public functions and classes of ``library`` (module
    name -> text) with no reference in ``library`` or ``callers`` outside
    their own definition, and not named in ``layers``."""
    refs: dict[str, set] = {}
    for module, text in {**library, **callers}.items():
        for name, places in _references(text, module).items():
            refs.setdefault(name, set()).update(places)
    out = []
    for module, text in library.items():
        for node in _parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in layers or refs.get(node.name, set()) - {(module, node.name)}:
                continue
            out.append(f"{module}::{node.name}")
    return out


def _texts(paths) -> dict[str, str]:
    return {str(p.relative_to(ROOT)): p.read_text() for p in paths}


def _tree():
    library = _texts(p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py")
    callers = _texts(
        p
        for folder in ("scripts", "bench")
        for p in sorted((ROOT / folder).glob("*.py"))
        if not p.name.startswith("test_")
    )
    return library, callers, _layer_names((ROOT / "bench" / "tracing.py").read_text())


def test_every_public_name_in_src_has_a_caller_outside_the_tests():
    library, callers, layers = _tree()
    flagged = uncalled_public_names(library, callers, layers)
    assert sorted(name.split("::")[1] for name in flagged) == sorted(EXEMPT), flagged


def test_the_guard_flags_a_name_only_tests_call():
    library, callers, layers = _tree()
    # a test-only oracle put back into src/: flagged, even though it calls
    # itself and its own module calls other names
    extra = "def check_rtt(t):\n    return t and check_rtt(None)\n"
    flagged = uncalled_public_names({**library, "src/qtoda/extra.py": extra}, callers, layers)
    assert "src/qtoda/extra.py::check_rtt" in flagged
    # an attribute use, an import and a LAYERS entry each count as a caller
    for caller in ("import m\nm.check_rtt(0)\n", "from m import check_rtt\n"):
        flagged = uncalled_public_names({**library, "src/qtoda/extra.py": extra}, {**callers, "c.py": caller}, layers)
        assert "src/qtoda/extra.py::check_rtt" not in flagged
    flagged = uncalled_public_names({**library, "src/qtoda/extra.py": extra}, callers, layers | {"check_rtt"})
    assert "src/qtoda/extra.py::check_rtt" not in flagged


def test_public_api():
    assert qtoda.__all__ == [
        "DoubleWord",
        "MonomialMap",
        "TorusContext",
        "TorusElement",
        "commutator",
        "commutes",
        "enumerate_double_coxeter",
        "index_vector_of",
        "quiver_vector_of",
        "standard_word",
        "word_of_quiver_vector",
    ]
