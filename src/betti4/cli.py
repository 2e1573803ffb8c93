"""Command-line front end.

Subcommands: ``betti`` (formula pipeline), ``verify`` (formulas against
the homology oracle over every supported field), ``atlas`` (dump or
re-check the 66-class table), ``experiment`` (random-ideal statistics).
JSON is the machine interface, aligned text the human default; exit
codes are 0 for success, 1 for a verification mismatch, 2 for bad
input.
"""

import argparse
import functools
import json
import os
import random
import re
import sys

from .atlas import atlas_entries, atlas_records
from .engine import full_table, pd_two_condition
from .errors import Betti4Error, InputUnreadable, ParseError
from .monomials import NUM_VARS, MonomialIdeal
from .multidegrees import DEFAULT_GEN_CAP
from .parsing import DEFAULT_EXP_CAP, parse_ideal
from .squarefree import mask_monomial, mask_string

# nothing here calls the twin reduction, but bench/run.py traces
# twins.build_bundle and bench/test_bench.py expects it to be loaded
# once the CLI is, so the CLI keeps importing it until the bench drops
# that span
from . import twins  # noqa: F401

# the oracle and csv are imported by the subcommands that use them, so
# ``betti`` starts without them

SCHEMA_VERSION = 1


def format_monomial(m):
    if not any(m):
        return "1"
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts)


def format_ideal(ideal):
    """Generators comma-separated; the zero ideal prints as the empty string,
    which parse_ideal reads back as the zero ideal."""
    return ", ".join(format_monomial(g) for g in ideal.gens)


def _read_inputs(args):
    """(line_number, text) for every non-blank, non-comment input line."""
    if args.ideals:
        lines = args.ideals
    else:
        try:
            if args.file:
                with open(args.file, encoding="utf-8") as fh:
                    text = fh.read()
            else:
                text = sys.stdin.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputUnreadable(f"cannot read {args.file or 'standard input'}: {exc}") from exc
        lines = text.splitlines()
    return [(number, line) for number, line in enumerate(lines, start=1)
            if line.split("#", 1)[0].strip()]


def _cap_flags(parser):
    parser.add_argument(
        "--max-gens", type=_ascii_int(0), default=DEFAULT_GEN_CAP, metavar="N",
        help=f"generator cap (default {DEFAULT_GEN_CAP})",
    )
    parser.add_argument(
        "--max-exp", type=_ascii_int(0), default=DEFAULT_EXP_CAP, metavar="N",
        help=f"exponent cap (default {DEFAULT_EXP_CAP})",
    )


def _input_flags(parser):
    # one source of ideals: argparse rejects positional ideals with --file
    # (exit 2); a "*" positional may join the group only with a default
    source = parser.add_mutually_exclusive_group()
    source.add_argument("ideals", nargs="*", default=[], help="generator lists; stdin when omitted")
    source.add_argument("--file", help="read ideals from a file, one per line, instead of arguments")


def _multigraded_json(rows):
    return {format_monomial(m): list(row) for m, row in sorted(rows.items())}


def cmd_betti(args):
    failed = False
    for number, line in _read_inputs(args):
        try:
            ideal = parse_ideal(line, args.max_exp)
            table = full_table(ideal, want_multigraded=args.multigraded, cap=args.max_gens)
        except Betti4Error as exc:
            failed = True
            if args.json:
                record = {"schema": SCHEMA_VERSION, "line": number, "error": str(exc)}
                if isinstance(exc, ParseError):
                    record["position"] = exc.position
                print(json.dumps(record))
            else:
                print(f"error (line {number}): {exc}", file=sys.stderr)
            continue
        pd2 = pd_two_condition(ideal)
        if args.json:
            record = {
                "schema": SCHEMA_VERSION,
                "generators": [format_monomial(g) for g in ideal.gens],
                "betti": list(table.betti),
                "pd": table.pd,
                "pd2_condition": pd2,
            }
            if args.multigraded:
                record["multigraded"] = _multigraded_json(table.multigraded)
            print(json.dumps(record))
        else:
            print(f"ideal: {format_ideal(ideal)}")
            cells = "  ".join(f"b{i}={v}" for i, v in enumerate(table.betti))
            print(f"  {cells}  pd={table.pd}  pd2_condition={str(pd2).lower()}")
            if args.multigraded:
                for m, row in sorted(table.multigraded.items()):
                    print(f"  {format_monomial(m):<24} {list(row)}")
    return 2 if failed else 0


def cmd_verify(args):
    from .homology import ALL_FIELDS, oracle_betti

    failed = False
    bad_input = False
    for number, line in _read_inputs(args):
        try:
            ideal = parse_ideal(line, args.max_exp)
            formula = full_table(ideal, want_multigraded=True, cap=args.max_gens)
            oracles = [
                (field, oracle_betti(ideal, field, args.max_gens, want_multigraded=True))
                for field in ALL_FIELDS
            ]
        except Betti4Error as exc:
            bad_input = True
            print(f"error (line {number}): {exc}", file=sys.stderr)
            continue
        verdicts = []
        for field, oracle in oracles:
            agree = formula.betti == oracle.betti and formula.multigraded == oracle.multigraded
            verdicts.append((field.characteristic, agree, oracle))
        tag = " ".join(f"char{c}={'ok' if a else 'FAIL'}" for c, a, _ in verdicts)
        print(f"line {number}: {tag}  betti={list(formula.betti)}  [{format_ideal(ideal)}]")
        zero = (0,) * 5
        for characteristic, agree, oracle in verdicts:
            if agree:
                continue
            failed = True
            # both maps sum to their totals, so differing tables differ at
            # some multidegree
            print(f"  mismatch at characteristic {characteristic}")
            for m in sorted(set(formula.multigraded) | set(oracle.multigraded)):
                want = oracle.multigraded.get(m, zero)
                got = formula.multigraded.get(m, zero)
                if want != got:
                    print(f"    multidegree: {format_monomial(m)}")
                    print(f"    expected (oracle): {list(want)}")
                    print(f"    actual (formula):  {list(got)}")
    if bad_input:
        return 2
    return 1 if failed else 0


def cmd_atlas(args):
    if args.check:
        from .homology import ALL_FIELDS, oracle_betti

        for entry in atlas_entries():
            ideal = MonomialIdeal(mask_monomial(g) for g in entry.gens)
            y = mask_monomial(entry.y_m)
            for field in ALL_FIELDS:
                rows = oracle_betti(ideal, field, want_multigraded=True).multigraded
                row = rows.get(y, (0,) * 5)
                if (row[2], row[3]) != (entry.beta2, entry.beta3):
                    print(
                        f"entry {entry.id}: stored ({entry.beta2}, {entry.beta3}) but oracle "
                        f"gives ({row[2]}, {row[3]}) at characteristic {field.characteristic}"
                    )
                    return 1
        print("all 66 entries agree with the oracle over every supported field")
        return 0
    if args.json:
        print(json.dumps(atlas_records()))
        return 0
    print(f"{'id':>3}  {'generators':<36} {'y_m':<6} {'b2':>2}  {'b3':>2}")
    for entry in atlas_entries():
        gens = ",".join(mask_string(g) for g in entry.gens)
        print(f"{entry.id:>3}  {gens:<36} {mask_string(entry.y_m):<6} "
              f"{entry.beta2:>2}  {entry.beta3:>2}")
    return 0


def sample_ideal(rng, max_gens, max_exp):
    """Random model: generator count uniform in [1, max_gens], exponents
    uniform in [0, max_exp], zero monomials resampled; the ideal keeps
    the minimal ones."""
    count = rng.randint(1, max_gens)
    gens = []
    for _ in range(count):
        m = tuple(rng.randint(0, max_exp) for _ in range(NUM_VARS))
        while not any(m):
            m = tuple(rng.randint(0, max_exp) for _ in range(NUM_VARS))
        gens.append(m)
    return MonomialIdeal(gens)


def cmd_experiment(args):
    import csv

    rng = random.Random(args.seed)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["seed_index", "num_gens", "beta2", "beta3", "beta4", "pd", "beta3_gt_beta2"])
    wins = 0
    wins_pd4 = 0
    # each row is written as soon as its table is known
    for index in range(args.samples):
        ideal = sample_ideal(rng, args.max_gens, args.max_exp)
        table = full_table(ideal, cap=args.max_gens)
        b = table.betti
        greater = b[3] > b[2]
        wins += greater
        wins_pd4 += greater and table.pd == 4
        writer.writerow([index, len(ideal.gens), b[2], b[3], b[4], table.pd,
                         str(greater).lower()])
    print(f"# samples={args.samples} seed={args.seed} "
          f"max_gens={args.max_gens} max_exp={args.max_exp}")
    print(f"# beta3_gt_beta2={wins} of which pd4={wins_pd4}")
    return 0


def _ascii_int(low=None):
    """argparse type: an optional sign and ASCII digits, at least low if given.

    int() alone also reads other scripts' digits, underscores and spaces.
    """
    def parse(text):
        if not re.fullmatch("[+-]?[0-9]+", text):
            raise ValueError(text)
        value = int(text)
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


@functools.cache
def build_parser():
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="betti4",
        description="Betti numbers of monomial ideals in four variables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("betti", help="compute Betti tables")
    _input_flags(p)
    style = p.add_mutually_exclusive_group()
    style.add_argument("--json", action="store_true", help="JSON Lines output")
    style.add_argument("--table", action="store_true", help="aligned text output (default)")
    p.add_argument("--multigraded", action="store_true", help="include per-degree rows")
    _cap_flags(p)
    p.set_defaults(run=cmd_betti)

    p = sub.add_parser("verify", help="check formulas against the homology oracle")
    _input_flags(p)
    _cap_flags(p)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("atlas", help="dump or re-check the squarefree class table")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--json", action="store_true", help="JSON array output")
    mode.add_argument("--check", action="store_true", help="re-derive every row via the oracle")
    p.set_defaults(run=cmd_atlas)

    p = sub.add_parser("experiment", help="random-ideal statistics as CSV")
    p.add_argument("--samples", type=_ascii_int(0), default=100, metavar="N")
    p.add_argument("--seed", type=_ascii_int(), default=0, metavar="N")
    p.add_argument(
        "--max-gens", type=_ascii_int(1), default=8, metavar="N",
        help="generator count upper bound for the random model (default 8)",
    )
    # with max_exp 0 every sampled monomial would be 1, which sample_ideal resamples forever
    p.add_argument(
        "--max-exp", type=_ascii_int(1), default=4, metavar="N",
        help="exponent upper bound for the random model (default 4)",
    )
    p.set_defaults(run=cmd_experiment)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except InputUnreadable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``betti ... | head -1``); point it
        # at the null device so the flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entry()
