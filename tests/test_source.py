"""Checks on the package source itself and on how it runs."""

import ast
import re
import sys
import textwrap
from pathlib import Path

import pytest
from conftest import run_fresh_interpreter
from mutants import stale_snippets

import betti4


def _modules():
    """(file name, syntax tree) of every module of the package."""
    for path in sorted(Path(betti4.__file__).parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # silently stop holding; invariants raise typed errors instead
    found = []
    for name, tree in _modules():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _absolute_imports():
    """(file name, line, module) of every absolute import in the package."""
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            for module in modules:
                yield name, node.lineno, module


def test_package_imports_only_the_standard_library():
    # the runtime has no dependencies: every import is relative or stdlib
    found = [f"{name}:{line}: {module}" for name, line, module in _absolute_imports()
             if module.partition(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_package_never_imports_dataclasses():
    # importing dataclasses pulls in inspect, ast and dis, a large share
    # of a cold start; value types derive from values.Value instead
    found = [f"{name}:{line}: {module}" for name, line, module in _absolute_imports()
             if module.partition(".")[0] == "dataclasses"]
    assert found == []


def _package(*modules):
    """The package and the given modules of it, as sys.modules names them."""
    return ["betti4", *(f"betti4.{module}" for module in modules)]


# entry point -> (interpreter options, the betti4 modules it loads, the
# standard-library modules it must not load)
ENTRY_POINTS = {
    # every public name loads its module on first use
    "betti4": ((), _package(), ()),
    # the oracle loads no formula code: no parser, shape formula, twin
    # reduction, atlas or engine
    "betti4.homology": ((), _package("errors", "homology", "monomials", "multidegrees", "tables",
                                     "values"), ()),
    # the betti path loads neither the oracle nor random (verify, atlas
    # --check and experiment import them when they run), nor json (betti
    # and atlas import it when they run, so verify never loads it), nor
    # csv, which no subcommand uses, and twins only because the bench
    # traces build_bundle; no dataclasses or inspect, which values.Value
    # replaces, and no typing; checked under -S because site imports
    # typing and random on some installations
    "betti4.cli": (("-S",), _package("atlas", "cli", "engine", "errors", "monomials",
                                     "multidegrees", "parsing", "squarefree", "tables", "twins",
                                     "values"),
                   ("csv", "dataclasses", "inspect", "json", "random", "typing")),
}


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_entry_point_loads_only_what_it_uses(entry_point):
    # a fresh interpreter, so modules other tests imported do not count
    options, package, absent = ENTRY_POINTS[entry_point]
    probe = textwrap.dedent(f"""
        import sys
        import {entry_point}
        print(sorted(name for name in sys.modules if name.partition(".")[0] == "betti4"))
        print(sorted(name for name in {absent!r} if name in sys.modules))
    """)
    assert run_fresh_interpreter(probe, *options).splitlines() == [str(package), "[]"]


def test_cli_import_loads_no_dataclasses_or_inspect():
    # without -S, so site's own imports count as a normal start does
    probe = textwrap.dedent("""
        import sys
        import betti4.cli
        print(sorted(name for name in ("dataclasses", "inspect") if name in sys.modules))
    """)
    assert run_fresh_interpreter(probe).splitlines() == ["[]"]


def test_numbers_are_ascii_digits_only():
    # \d and str.isdigit (like isdecimal and isnumeric) also accept other
    # scripts' digits and superscripts, which int() then reads or rejects
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\\d" in node.value:
                found.append(f"{name}:{node.lineno}: \\d in a string")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("isdigit", "isdecimal", "isnumeric")):
                found.append(f"{name}:{node.lineno}: .{node.func.attr}()")
    assert found == []


def test_the_text_format_compiles_one_pattern():
    # parse_ideal reads every generator it has not memoized with the one
    # scanner, _FACTOR, so its errors and positions have one source; a
    # fast path with a grammar of its own would have to agree with it on
    # every error, and was measured and left out
    tree = dict(_modules())["parsing.py"]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "re":
            found.append(f"{node.lineno}: from re import")
        elif isinstance(node, ast.Import) and any(a.name == "re" and a.asname for a in node.names):
            found.append(f"{node.lineno}: import re as")
        elif (isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "re"
                and callable(getattr(re, node.attr, None))):
            found.append(f"{node.lineno}: re.{node.attr}")
    factor = [node.lineno for node in tree.body if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["_FACTOR"]]
    assert len(factor) == 1 and found == [f"{factor[0]}: re.compile"]


def _identifiers(tree):
    """(line, name) of every name a tree binds, reads, imports or defines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_each_derived_fact_has_one_owner():
    # the generator cap is checked by multidegrees.check_cap alone, projective
    # dimension is read off the totals in tables.py alone, the atlas
    # keeps one index and answers a class id from it alone, with no
    # relabeling witness (the brute-force relabeling search lives in the
    # tests), every Betti row comes from the key table through one pass
    # over the walked points, with no second lattice scan or per-column
    # sum, and beta4's cross-check holds the quadruples' lcms alone;
    # dominance, semidominance and strong divisibility are computed on
    # masks and bit columns only, their definitions on exponent tuples
    # (and the oracle's per-point row, lcm, divisibility, support masks
    # and the dense homology rank) are test references, a twin
    # ideal's masks are read as they are, with no second minimalization,
    # the twin reduction is build_bundle alone, with no public steps or
    # guards against input that only a hand-built twin could give, an
    # ideal's generators are minimalized by its constructor alone, a
    # Koszul complex is its face set, with no wrapper type or interning
    # cache, atlas completeness is checked once, when the atlas loads, a
    # characteristic is a plain int that oracle_betti checks, and a
    # squarefree ideal is a plain sorted mask tuple, checked where the
    # atlas loads
    found = []
    for name, tree in _modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and node.exc is not None and name != "multidegrees.py"
                    and "GeneratorCapExceeded" in {ident for _, ident in _identifiers(node.exc)}):
                found.append(f"{name}:{node.lineno}: raises GeneratorCapExceeded")
            if isinstance(node, ast.FunctionDef) and node.name == "pd" and name != "tables.py":
                found.append(f"{name}:{node.lineno}: defines pd outside tables.py")
            if (isinstance(node, ast.Call) and name != "monomials.py"
                    and "minimalize" in {ident for _, ident in _identifiers(node.func)}):
                found.append(f"{name}:{node.lineno}: calls minimalize outside monomials.py")
        for line, ident in _identifiers(tree):
            if ident in ("_least_form", "_CANONICAL_INDEX", "lattice_keys", "_formula_counts",
                         "key_rows", "betti2_formula", "betti3_formula", "betti3_euler",
                         "NegativeBetti", "DominantQuadrupleClass", "lcm_all", "strongly_divides",
                         "dominant_members", "dominant_generators", "semidominance", "is_dominant",
                         "permute_monomial", "permute_ideal", "multigraded_oracle",
                         "minimalize_masks", "restrict", "squarefree_twin", "_twin_images",
                         "IllFormedTwin", "RestrictionViolation", "NotInAtlas", "canonicalize",
                         "CanonicalForm", "_PERMS", "_face_sets", "_last_table", "lcm", "divides",
                         "support_mask", "reduced_homology_rank", "SimplicialComplex",
                         "_interned_complex", "FieldSpec", "SquarefreeIdeal",
                         "SUPPORTED_CHARACTERISTICS"):
                found.append(f"{name}:{line}: {ident}")
            elif ident == "projective_dimension" and name != "tables.py":
                found.append(f"{name}:{line}: {ident} outside tables.py")
    assert found == []


def _uses(node):
    """Every name a subtree reads or binds, and every attribute it names."""
    return {ident for _, ident in _identifiers(node)}


def test_every_top_level_name_is_reachable():
    # a top-level function, class or assigned name, and a method of a
    # class of the package, must be used by code that runs: the console
    # entry point, the oracle's entry oracle_betti and every function the
    # bench traces are the roots, with the hooks the interpreter calls
    # (dunders) and module-level code (right-hand sides, bare statements
    # and a class's own body), which runs at import; __all__ roots
    # nothing and imports are not uses. Names resolve by spelling,
    # across modules and classes.
    bodies = {}
    used = {"entry", "oracle_betti", *(attr for _, _, attr in _bench_targets())}
    for name, tree in _modules():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                bodies[f"{name}:{node.name}"] = node.name, _uses(node)
            elif isinstance(node, ast.ClassDef):
                own = [*node.bases, *node.keywords, *node.decorator_list]
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        bodies[f"{name}:{node.name}.{item.name}"] = item.name, _uses(item)
                    else:
                        own.append(item)
                bodies[f"{name}:{node.name}"] = node.name, set().union(*map(_uses, own))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    for ident in _uses(target):
                        bodies[f"{name}:{ident}"] = ident, set()
                if node.value is not None:
                    used |= _uses(node.value)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                used |= _uses(node)
    used |= {ident for ident, _ in bodies.values() if ident.startswith("__") and ident.endswith("__")}
    done = set()
    while True:
        live = [key for key, (ident, _) in bodies.items() if ident in used and key not in done]
        if not live:
            break
        for key in live:
            done.add(key)
            used |= bodies[key][1]
    assert sorted(key for key, (ident, _) in bodies.items() if ident not in used) == []


def test_star_import_yields_every_public_name():
    # a fresh interpreter, so the lazy names are resolved by the star
    # import itself; a stale __all__ entry would raise there, and no
    # public name may rebind the package's own name in the importer
    probe = textwrap.dedent("""
        import betti4
        from betti4 import *
        print(type(betti4).__name__)
        print(len(betti4.__all__) == len(set(betti4.__all__)))
        print(sorted(name for name in betti4.__all__ if name not in globals()))
    """)
    assert run_fresh_interpreter(probe).splitlines() == ["module", "True", "[]"]


def _bench_targets():
    """TARGETS of bench/run.py, read from its source without importing it."""
    path = Path(__file__).resolve().parent.parent / "bench" / "run.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py assigns no TARGETS")


def test_every_function_the_bench_traces_exists():
    # the bench wraps each (module, attribute) of TARGETS where the
    # command line and the oracle load it, and reports a missing one as
    # null; a fresh interpreter, so only what those imports load counts
    targets = _bench_targets()
    probe = textwrap.dedent(f"""
        import sys
        import betti4.cli, betti4.homology
        print([span for span, module, attr in {targets!r}
               if not callable(getattr(sys.modules.get(module), attr, None))])
    """)
    assert targets and run_fresh_interpreter(probe).splitlines() == ["[]"]


def test_every_mutant_snippet_occurs_exactly_once():
    # tests/mutants.py replays each mutant by exact replacement, so a
    # snippet that the checkout no longer holds, or holds twice, is stale
    assert stale_snippets() == []


def test_invariants_hold_under_python_O():
    # a fresh interpreter with asserts stripped: every constructor check,
    # the homology kernel's check that a face set is a complex and the
    # oracle's check of its characteristic must still raise their errors
    probe = textwrap.dedent("""
        import sys
        from betti4.errors import InvariantViolation
        from betti4.homology import _homology_profile, oracle_betti
        from betti4.monomials import MonomialIdeal
        from betti4.tables import BettiTable

        cases = {
            "edge without its vertices": lambda: _homology_profile(1 << 0b0011, 0),
            "six-entry row": lambda: BettiTable((1, 0, 0, 0, 0), {(0, 0, 0, 0): (1, 0, 0, 0, 0, 0)}),
            "negative row entry": lambda: BettiTable(
                (1, 0, 0, 0, 0), {(0, 0, 0, 0): (1, 1, 0, 0, 0), (1, 0, 0, 0): (0, -1, 0, 0, 0)}),
            "three-entry monomial": lambda: MonomialIdeal(((1, 0, 0),)),
            "float exponent": lambda: MonomialIdeal(((1.5, 0, 0, 0),)),
        }
        print(sys.flags.optimize)
        for name, build in cases.items():
            try:
                build()
            except InvariantViolation:
                print(name, "raised")
            else:
                print(name, "accepted")
        # pd is derived from the totals and cannot be passed in
        try:
            BettiTable((1, 2, 1, 0, 0), pd=3)
        except TypeError:
            print("pd argument refused")
        print("pd", BettiTable((1, 2, 1, 0, 0)).pd, BettiTable((1, 4, 6, 4, 1)).pd)
        try:
            oracle_betti(MonomialIdeal(((1, 0, 0, 0),)), 4)
        except ValueError:
            print("characteristic 4 refused")
    """)
    assert run_fresh_interpreter(probe, "-O").splitlines() == [
        "1",
        "edge without its vertices raised",
        "six-entry row raised",
        "negative row entry raised",
        "three-entry monomial raised",
        "float exponent raised",
        "pd argument refused",
        "pd 2 4",
        "characteristic 4 refused",
    ]


def test_a_fresh_atlas_load_gives_the_row_goldens():
    # a fresh interpreter loads the table anew and reads the tabulated
    # rows of a few classes by field name; this module imports no atlas
    # code, so a loader that fails still fails here as a test
    probe = textwrap.dedent("""
        from betti4 import atlas
        entries, _ = atlas._load()
        for cid in (3, 4, 46, 64, 65):
            print(cid, entries[cid].beta2, entries[cid].beta3)
    """)
    assert run_fresh_interpreter(probe).splitlines() == [
        "3 1 0", "4 0 1", "46 0 3", "64 3 0", "65 1 1",
    ]
