"""Replayable mutation matrix for src/betti4.

Usage, from the root of a checkout:

    python3 tests/mutants.py [--quick] [--out matrix.json]

Each mutant in MUTANTS replaces one exact snippet of one source file.
For each mutant src/ is copied to a temporary directory and mutated
there, so the checkout is never touched.  The tests expected to kill
the mutant run first, then the whole tier-1 suite, each as one child
process with the mutated copy first on the module path, one at a time
and each under TIMEOUT.  With --quick the suite runs only for a mutant
that its expected tests do not kill; a row they kill reads null for
killed_by_suite.  The matrix, written as JSON, gives each
mutant's status: "killed" (with the tests that failed in each run, or
the error that stopped `import betti4.cli` when pytest stopped at
start-up because the mutated package does not import), "survived",
"timed out", or "runner error" when pytest stopped before any test
could fail for another reason (an unknown test id, say).  The file name does not
match test_*.py, so the suite does not collect it; tests/test_source.py
checks through stale_snippets() that every snippet still occurs
exactly once.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "betti4"
TIMEOUT = 300  # seconds for each pytest run

ACCEPTANCE = "tests/test_acceptance.py::"
CENSUS = ACCEPTANCE + "test_criterion_14_both_routes_give_the_key_row_at_every_point_configuration"
WALK = ("tests/test_multidegrees.py::test_multidegrees_are_exactly_the_subset_lcms",
        "tests/test_multidegrees.py::test_cones_are_left_out")
CLI_LOADS = "tests/test_source.py::test_entry_point_loads_only_what_it_uses[betti4.cli]"
READS = "tests/test_multidegrees.py::test_walk_tests_far_fewer_points_than_the_lattice_holds"
NO_TORSION = "tests/test_homology.py::test_homology_on_four_vertices_has_no_torsion"
DENSE = "tests/test_homology.py::test_facet_table_profiles_match_the_dense_elimination"
TORSION = "tests/test_homology.py::test_rank_sees_torsion_that_four_vertices_never_have"
COMPLEXES = "tests/test_homology.py::test_exactly_the_168_downward_closed_face_sets_are_complexes"
KEYED = ("tests/test_multidegrees.py::test_keyed_walk_gives_the_rows_of_the_pairwise_walk",
         "tests/test_multidegrees.py::test_keyed_walk_gives_the_rows_of_the_pairwise_walk_on_staircases")

# name -> (file in src/betti4, exact snippet, replacement, tests expected to kill it)
MUTANTS = {
    "key: bit-0 term dropped": (
        "engine.py",
        "| (c1 & c3 and 0x0020) | (c01 & c23 and 0x0001))",
        "| (c1 & c3 and 0x0020))",
        (CENSUS, ACCEPTANCE + "test_criterion_12_every_key_row_matches_the_oracle_in_every_characteristic"),
    ),
    "key: c0 & c3 pair term dropped": (
        "engine.py",
        " | (c0 & c3 and 0x0040)\n              |",
        "\n              |",
        (CENSUS,),
    ),
    "key: below2 and below3 columns swapped": (
        "engine.py",
        "c2 = d & lt2[m2]\n        c3 = d & lt3[m3]",
        "c2 = d & lt3[m3]\n        c3 = d & lt2[m2]",
        (CENSUS,),
    ),
    "columns: below[j][0] emptied": (
        "multidegrees.py",
        "        lt[0] = up[0]\n",
        "",
        (ACCEPTANCE + "test_criterion_01_worked_example_betti_table",),
    ),
    "columns: lex instead of x4 bit order": (
        "multidegrees.py",
        "order = sorted(gens, key=_X4)",
        "order = sorted(gens)",
        (ACCEPTANCE + "test_criterion_03_eight_generator_golden",),
    ),
    "walk: cone test removed": (
        "multidegrees.py",
        "            if not lt0[m0] & lt1[m1] & lt2[m2] & lt3[m3]:\n"
        "                new.append(m)\n",
        "            new.append(m)\n",
        WALK,
    ),
    "walk: cones extended but filtered": (
        "multidegrees.py",
        "            if not lt0[m0] & lt1[m1] & lt2[m2] & lt3[m3]:\n"
        "                new.append(m)\n"
        "        if new:\n"
        "            live += new\n"
        "            new.clear()\n"
        "        live.append(g)\n",
        "            new.append(m)\n"
        "        if new:\n"
        "            live += new\n"
        "            new.clear()\n"
        "        live.append(g)\n"
        "    live = [m for m in live\n"
        "            if m == UNIT or not lt0[m[0]] & lt1[m[1]] & lt2[m[2]] & lt3[m[3]]]\n",
        (READS,),
    ),
    "walk: one variable's below term dropped from the cone test": (
        "multidegrees.py",
        "if not lt0[m0] & lt1[m1] & lt2[m2] & lt3[m3]:",
        "if not lt0[m0] & lt1[m1] & lt2[m2]:",
        WALK[:1],
    ),
    "walk: unit left out": (
        "multidegrees.py",
        "        live.append(UNIT)\n",
        "        pass\n",
        (ACCEPTANCE + "test_criterion_01_worked_example_betti_table",),
    ),
    "coordinate walk: runs on past the first cone in m3": (
        "engine.py",
        "                    if below012 & below3:\n"
        "                        break\n",
        "                    if below012 & below3:\n"
        "                        continue\n",
        (READS,),
    ),
    "coordinate walk: m3 floor ignored": (
        "engine.py",
        "ds = d012 & -floor",
        "ds = d012",
        # the rows stay right: the points it adds key to zero rows or repeat
        (READS,),
    ),
    "coordinate walk: m3 steps one generator, not one exponent": (
        "engine.py",
        "ds &= ~upto3",
        "ds ^= ds & -ds",
        # the rows stay right: the points it adds key to zero rows or repeat
        (READS,),
    ),
    "leaf key: m3 support bit dropped": (
        "engine.py",
        "row = get(up | support | (m3 and 0x80000))",
        "row = get(up | support)",
        (CENSUS,) + KEYED,
    ),
    "leaf key: two key bits swapped": (
        "engine.py",
        "| (c0 & c2 and 0x0400) | (c0 & c3 and 0x0040)\n"
        "                          | (c1 & c2 and 0x0200)",
        "| (c0 & c2 and 0x0200) | (c0 & c3 and 0x0040)\n"
        "                          | (c1 & c2 and 0x0400)",
        (CENSUS,) + KEYED,
    ),
    "beta4: one lcm dropped": (
        "engine.py",
        "return tuple(sorted(lcms))",
        "return tuple(sorted(lcms))[1:]",
        (ACCEPTANCE + "test_criterion_02_beta4_golden",),
    ),
    "quadruples: ceiling skip and break removed": (
        "engine.py",
        "ceiling = order[(upto_c & -upto_c).bit_length() - 1][3]",
        "ceiling = order[-1][3] + 1",
        ("tests/test_engine.py::test_the_d3_ceiling_prunes_most_of_the_quadruple_search",),
    ),
    "quadruples: ceiling taken on below_a instead of below_ab": (
        "engine.py",
        "upto_c = below_ab & le2[c_floor]",
        "upto_c = below_a & le2[c_floor]",
        ("tests/test_engine.py::test_dominant_quadruples_match_the_subset_scan",
         "tests/test_engine.py::test_dominant_quadruples_match_the_oracle_at_large_q"),
    ),
    "quadruples: break one exponent early": (
        "engine.py",
        "if c3 >= ceiling:",
        "if c3 + 1 >= ceiling:",
        ("tests/test_engine.py::test_dominant_quadruples_match_the_subset_scan",
         "tests/test_engine.py::test_dominant_quadruples_match_the_oracle_at_large_q"),
    ),
    "pd2: smallest instead of second-smallest column exponent": (
        "engine.py",
        "sorted(column)[1]",
        "sorted(column)[0]",
        ("tests/test_engine.py::test_pd_two_condition_matches_the_pair_scan",),
    ),
    "ideal: constructor stores the generators as given": (
        "monomials.py",
        'set_field(self, "gens", minimalize(gens))',
        'set_field(self, "gens", gens)',
        ("tests/test_monomials.py::test_ideal_keeps_the_minimal_generators",),
    ),
    "ideal: exponent type check dropped": (
        "monomials.py",
        "                    or not type(g[0]) is type(g[1]) is type(g[2]) is type(g[3]) is int\n",
        "",
        ("tests/test_values.py::test_validated_constructors_keep_their_errors",
         "tests/test_source.py::test_invariants_hold_under_python_O"),
    ),
    "twins: twin and squarefree fields swapped in TwinBundle": (
        "twins.py",
        '"twin", "squarefree",',
        '"squarefree", "twin",',
        ("tests/test_twins.py::test_twin_keeps_attained_exponents_and_minimalizes",
         "tests/test_twins.py::test_squarefree_twin_reads_attained_variables"),
    ),
    "twins: divisibility check strict": (
        "twins.py",
        "x <= y for x, y in zip(a, b)",
        "x < y for x, y in zip(a, b)",
        ("tests/test_twins.py::test_restriction_keeps_divisors_only",
         "tests/test_twins.py::test_restriction_lcm_recovers_genuine_multidegrees"),
    ),
    "atlas: lookup returns (beta3, beta2)": (
        "atlas.py",
        "return (entry.beta2, entry.beta3)",
        "return (entry.beta3, entry.beta2)",
        ("tests/test_atlas.py::test_index_maps_every_squarefree_ideal_to_its_class_id",
         "tests/test_atlas.py::test_lookup_guard"),
    ),
    "atlas: beta2 and beta3 fields swapped in AtlasEntry": (
        "atlas.py",
        '"beta2", "beta3"))',
        '"beta3", "beta2"))',
        ("tests/test_source.py::test_a_fresh_atlas_load_gives_the_row_goldens",),
    ),
    "atlas: antichain check dropped": (
        "atlas.py",
        "        if any(a & b == a for i, a in enumerate(gens) for b in gens[i + 1:]):\n"
        '            raise InternalInconsistency(f"entry {cid}: generators are not an antichain")\n',
        "",
        ("tests/test_atlas.py::test_loader_rejects_a_corrupted_table",
         "tests/test_squarefree.py::test_antichain_enforced"),
    ),
    "atlas: completeness check dropped": (
        "atlas.py",
        "    if len(labeled) != 167:\n"
        '        raise InternalInconsistency(f"{len(labeled)} labeled forms, expected 167")\n',
        "",
        ("tests/test_atlas.py::test_loader_rejects_a_corrupted_table",),
    ),
    "atlas: index keeps an orbit's last class id": (
        "atlas.py",
        "labeled.setdefault(tuple(sorted([relabel[g] for g in gens])), cid)",
        "labeled[tuple(sorted([relabel[g] for g in gens]))] = cid",
        ("tests/test_atlas.py::test_listed_entries_canonicalize_to_orbit_minimum",
         "tests/test_atlas.py::test_index_maps_every_squarefree_ideal_to_its_class_id"),
    ),
    "atlas: loader compares only beta3 of relabeled rows": (
        "atlas.py",
        "(entries[known].beta2, entries[known].beta3) != (b2, b3)",
        "entries[known].beta3 != b3",
        ("tests/test_atlas.py::test_loader_rejects_a_corrupted_table",),
    ),
    "values: __eq__ accepts any Value": (
        "values.py",
        "if other.__class__ is not self.__class__:",
        "if not isinstance(other, Value):",
        ("tests/test_values.py::test_equality_holds_only_within_one_type",),
    ),
    "tables: entry check dropped from _column_sums": (
        "tables.py",
        " or check_entries and min(map(min, rows)) < 0",
        "",
        ("tests/test_engine.py::test_negative_multigraded_entry_is_rejected",
         "tests/test_values.py::test_from_rows_sums_the_columns_once_and_checks_the_rows"),
    ),
    "tables: strict=True dropped": (
        "tables.py",
        "zip(*rows, strict=True)",
        "zip(*rows)",
        ("tests/test_engine.py::test_long_multigraded_row_is_rejected",),
    ),
    "tables: pd loop starts one degree lower": (
        "tables.py",
        "for i in range(4, 0, -1):",
        "for i in range(3, 0, -1):",
        ("tests/test_engine.py::test_betti_table_consistency_checks",),
    ),
    "homology: unsigned boundary matrices": (
        "homology.py",
        "-1 if k % 2 else 1",
        "1",
        (NO_TORSION, DENSE),
    ),
    "homology: facet sign without parity": (
        "homology.py",
        "-1 if k % 2 else 1",
        "-1 if k else 1",
        (NO_TORSION, DENSE),
    ),
    "homology: rows enter the elimination unreduced mod p": (
        "homology.py",
        "row = {c: x % char for c, x in row if x % char} if char else dict(row)",
        "row = dict(row)",
        (TORSION,),
    ),
    "homology: reduced rows not taken mod p": (
        "homology.py",
        "                if char:\n                    x %= char\n",
        "",
        (TORSION,),
    ),
    "homology: a row whose lead is taken becomes a pivot unreduced": (
        "homology.py",
        "            if pivot is None:\n                pivots[lead] = row\n",
        "            if True:\n                pivots[lead] = row\n",
        (DENSE, TORSION),
    ),
    "homology: koszul_complex keeps only bits & 0xFF": (
        "homology.py",
        "    return bits\n",
        "    return bits & 0xFF\n",
        ("tests/test_homology.py::test_koszul_complex_matches_the_shift_definition",),
    ),
    "homology: closure check drops the vertex-4 term": (
        "homology.py",
        " | (bits & w3) >> 8) & ~bits:",
        ") & ~bits:",
        (COMPLEXES,),
    ),
    "homology: range check dropped": (
        "homology.py",
        "    if not 0 <= bits < 1 << 16:\n"
        '        raise InvariantViolation(f"face set {bits!r} is not a 16-bit set")\n',
        "",
        (COMPLEXES,),
    ),
    "homology: characteristic check dropped": (
        "homology.py",
        "    if type(char) is not int or char not in ALL_FIELDS:\n"
        '        raise ValueError(f"unsupported characteristic {char!r}")\n',
        "",
        ("tests/test_homology.py::test_oracle_refuses_unsupported_characteristics",
         "tests/test_source.py::test_invariants_hold_under_python_O"),
    ),
    "homology: unit row with beta0 = 0": (
        "homology.py",
        "rows = {b: (1, h[0], h[1], h[2], h[3])}",
        "rows = {b: (0, h[0], h[1], h[2], h[3])}",
        ("tests/test_homology.py::test_oracle_degenerate_conventions",),
    ),
    "homology: table reuse ignores the profiles": (
        "homology.py",
        "last[3] == profiles",
        "True",
        ("tests/test_cli.py::test_a_field_whose_profile_differs_on_one_face_set_gets_rows_of_its_own",),
    ),
    "homology: table reuse ignores want_multigraded": (
        "homology.py",
        "last[4] == want_multigraded",
        "True",
        ("tests/test_homology.py::test_oracle_pass_matches_the_per_point_definition",),
    ),
    "homology: memo ignores which walk": (
        "homology.py",
        "hit = last and last[0] is degrees",
        "hit = last and True",
        ("tests/test_homology.py::test_oracle_memos_follow_any_sequence_of_ideals_and_fields",),
    ),
    "homology: memo read before the walk": (
        "homology.py",
        "    degrees = enumerate_multidegrees(ideal, cap)\n    last = _last\n",
        "    last = _last\n"
        "    # keyed on the generators, so an equal ideal skips the walk and its cap check\n"
        "    degrees = (last[0] if last and last[0].columns[0] == sorted(ideal.gens, key=lambda g: g[3])\n"
        "               else enumerate_multidegrees(ideal, cap))\n",
        ("tests/test_homology.py::test_the_oracle_memo_never_answers_before_the_cap_check",),
    ),
    "key table: HOLLOW is the family of every mask": (
        "engine.py",
        "HOLLOW = upward_closure((1, 2, 4, 8))",
        "HOLLOW = UP[0]",
        ("tests/test_engine.py::test_beta4_rows_sit_at_the_dominant_quadruple_lcms",),
    ),
    "key table: beta1 = 1 on every key": (
        "engine.py",
        "int(len(gens) == 1)",
        "1",
        (ACCEPTANCE + "test_criterion_01_worked_example_betti_table",),
    ),
    "values: __setattr__ assigns": (
        "values.py",
        'raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")',
        "set_field(self, name, value)",
        ("tests/test_values.py::test_fields_cannot_be_assigned_or_deleted",),
    ),
    "values: imports dataclasses": (
        "values.py",
        "set_field = object.__setattr__\n",
        "set_field = object.__setattr__\nimport dataclasses  # noqa: E402,F401\n",
        ("tests/test_source.py::test_package_never_imports_dataclasses", CLI_LOADS),
    ),
    "cli: BrokenPipeError handler removed": (
        "cli.py",
        "    try:\n"
        "        code = main()\n"
        "        sys.stdout.flush()\n"
        "    except BrokenPipeError:\n",
        "    code = main()\n"
        "    sys.stdout.flush()\n"
        "    if False:\n",
        ("tests/test_cli.py::test_a_reader_that_stops_early_gets_no_traceback",),
    ),
    "cli: experiment buffers its rows": (
        "cli.py",
        "        print(index, len(ideal.gens), b[2], b[3], b[4], table.pd, str(greater).lower(), "
        "sep=\",\")\n",
        "        buffered = [*(buffered if index else ()),\n"
        "                    (index, len(ideal.gens), b[2], b[3], b[4], table.pd,\n"
        "                     str(greater).lower())]\n"
        "    for row in buffered if args.samples else ():\n"
        "        print(*row, sep=\",\")\n",
        ("tests/test_cli.py::test_experiment_streams_each_row_before_the_next_table",),
    ),
    "cli: verify verdict reads the totals, not the rows": (
        "cli.py",
        "ok, previous = oracle.multigraded == formula.multigraded, oracle",
        "ok, previous = oracle.betti == formula.betti, oracle",
        ("tests/test_cli.py::test_verify_fails_on_rows_that_differ_under_equal_totals",),
    ),
    "text format: exponent 1 written as ^1": (
        "parsing.py",
        'name if e == 1 else f"{name}^{e}"',
        'f"{name}^{e}"',
        ("tests/test_cli.py::test_format_monomial",),
    ),
    "text format: a memo hit skips the cap check": (
        "parsing.py",
        "if gen is None or max(gen) > max_exp:",
        "if gen is None:",
        ("tests/test_parsing.py::test_a_memoized_generator_meets_a_lower_cap_as_the_scanner_does",),
    ),
    "text format: the memo key drops whitespace": (
        "parsing.py",
        "key = text[pos:end] if end >= 0 else text[pos:]",
        'key = "".join((text[pos:end] if end >= 0 else text[pos:]).split())',
        ("tests/test_parsing.py::test_the_memo_keys_on_a_generators_exact_text",),
    ),
    "text format: a missed generator scanned out of place": (
        "parsing.py",
        "gen = _scan(text, pos, max_exp)",
        "gen = _scan(key, 0, max_exp)",
        ("tests/test_parsing.py::test_an_error_after_memo_hits_keeps_the_scanners_position",),
    ),
    "text format: the generator memo never starts over": (
        "parsing.py",
        "                if len(memo) >= _MEMO_SIZE:\n                    memo.clear()\n",
        "",
        ("tests/test_parsing.py::test_neither_memo_grows_past_its_bound",),
    ),
    "text format: long generator texts memoized": (
        "parsing.py",
        "            if len(key) <= _KEY_SIZE:\n",
        "            if True:\n",
        ("tests/test_parsing.py::test_the_memo_keeps_no_generator_text_longer_than_its_bound",),
    ),
    "text format: the writer's memo unbounded": (
        "parsing.py",
        "@lru_cache(maxsize=_MEMO_SIZE)",
        "@lru_cache(maxsize=None)",
        ("tests/test_parsing.py::test_neither_memo_grows_past_its_bound",),
    ),
    "package: a public name mapped to the wrong module": (
        "__init__.py",
        '"parse_ideal": "parsing",',
        '"parse_ideal": "monomials",',
        ("tests/test_source.py::test_star_import_yields_every_public_name",),
    ),
    "cli: json imported at start-up": (
        "cli.py",
        "import functools\nimport os\n",
        "import functools\nimport json  # noqa: F401\nimport os\n",
        (CLI_LOADS,),
    ),
    "cli: twins import dropped": (
        "cli.py",
        "from . import twins  # noqa: F401\n",
        "",
        (CLI_LOADS,),
    ),
}

_REPORTED = re.compile(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$")


def stale_snippets():
    """Mutants whose snippet does not occur exactly once in src/betti4.

    It reads the checkout, not the imported package, which is the
    mutated copy while a mutant runs.
    """
    return [f"{name}: {file} holds the snippet {count} times"
            for name, (file, snippet, _, _) in MUTANTS.items()
            if (count := (PACKAGE / file).read_text(encoding="utf-8").count(snippet)) != 1]


def run_tests(src, tests):
    """(failed test ids, problem) of one pytest run against src.

    problem is None, "timed out", or the exit status of a run that
    pytest stopped without a failing test (2 interrupted, 3 internal
    error, 4 usage error such as an unknown test id, 5 no tests
    collected); such a run kills nothing.  The child gets its own
    process group, so a timeout also stops the interpreters the tests
    start.
    """
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", *tests]
    child = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        return [], "timed out"
    failed = [match.group(1) for match in map(_REPORTED.match, out.splitlines()) if match]
    if child.returncode == 0 or child.returncode == 1 and failed:
        return failed, None
    return [], f"pytest exit status {child.returncode}"


def import_error(src):
    """The last line of the error that stops `import betti4.cli` against
    src, or None if it imports."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", "import betti4.cli"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=TIMEOUT, check=False)
    return done.stderr.strip().splitlines()[-1] if done.returncode else None


# the exit statuses of a pytest that stopped before running a test:
# interrupted (2), as a collection error does, or a usage error (4), as
# an error in a conftest's imports does
_STOPPED = {"pytest exit status 2", "pytest exit status 4"}


def run_mutant(name, quick=False):
    """One row of the kill matrix; quick skips the suite once the
    expected tests have killed the mutant."""
    file, snippet, replacement, expected = MUTANTS[name]
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="betti4-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(PACKAGE, src / "betti4", ignore=shutil.ignore_patterns("__pycache__"))
        target = src / "betti4" / file
        target.write_text(target.read_text(encoding="utf-8").replace(snippet, replacement),
                          encoding="utf-8")
        by_expected, expected_problem = run_tests(src, expected)
        # a package that does not import stops pytest at start-up, yet
        # every test that imports it would fail
        broken = import_error(src) if expected_problem in _STOPPED else None
        if quick and (by_expected or broken):
            by_suite, suite_problem = None, None
        else:
            by_suite, suite_problem = run_tests(src, [])
            if suite_problem in _STOPPED and broken is None:
                broken = import_error(src)
        problems = {expected_problem, suite_problem} - {None}
    if by_expected or by_suite or broken:
        status = "killed"
    elif problems:
        status = "timed out" if problems == {"timed out"} else "runner error"
    else:
        status = "survived"
    return {"status": status, "file": file, "expected": list(expected),
            "killed_by_expected": by_expected, "killed_by_suite": by_suite,
            "expected_problem": expected_problem, "suite_problem": suite_problem,
            "import_error": broken, "seconds": round(time.perf_counter() - started, 1)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--out", default="-", help="file for the JSON matrix (default: stdout)")
    parser.add_argument("--quick", action="store_true",
                        help="run the whole suite only for a mutant its expected tests do not kill")
    args = parser.parse_args(argv)
    stale = stale_snippets()
    if stale:
        parser.error(f"stale snippets: {stale}")
    matrix = {}
    for name in MUTANTS:
        matrix[name] = run_mutant(name, args.quick)
        print(f"{name}: {matrix[name]['status']}", file=sys.stderr)
    text = json.dumps(matrix, indent=2, ensure_ascii=False) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")
    clean = all(row["status"] == "killed" and (row["import_error"] or not row["expected_problem"]
                                               and not row["suite_problem"])
                for row in matrix.values())
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
