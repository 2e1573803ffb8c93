"""Seeded inputs and output checks for the betti4 benchmark.

Inputs are generated here, from the seed, and reach the program only as
CLI text.  Monomials are 4-tuples of exponents; an ideal is the sorted
tuple of its minimal generators.  Minimalization and formatting are
reimplemented here so the checks do not lean on the package's own
plumbing.
"""

import json
import os
import random
import re

WORKLOADS = ("experiment", "staircase", "verify")

# The worked examples with their published tables: the four-generator
# ideal of the computations section and the eight-generator ideal of
# Section 8.  Every run checks them in its warm-up request, and the
# batch workloads also carry them in their first batch.
PINNED = (
    (((0, 0, 2, 2), (0, 1, 1, 2), (2, 1, 1, 0), (2, 2, 0, 0)), (1, 4, 3, 0, 0)),
    (
        (
            (0, 0, 0, 3), (0, 0, 1, 2), (0, 0, 2, 1), (0, 0, 3, 0),
            (0, 3, 0, 0), (1, 2, 0, 0), (2, 1, 0, 0), (3, 0, 0, 0),
        ),
        (1, 8, 22, 24, 9),
    ),
)

# Random model of the paper's experiment: 1-8 generators, exponents 0-4,
# sent as batch files of BATCH_SIZE ideals, one file per request.
MODEL_MAX_GENS = 8
MODEL_MAX_EXP = 4
BATCH_SIZE = 100
BATCHES = {"experiment": 100, "verify": 40}

# Staircase ideals: every generator count from STAIRCASE_MIN to
# STAIRCASE_MAX, STAIRCASE_REPEAT times each, so the mix of sizes is the
# same for every seed and only the monomials vary.  Above 28 generators
# a request takes long enough that a run no longer holds the hundred
# sends p90 needs.
STAIRCASE_MIN = 20
STAIRCASE_MAX = 28
STAIRCASE_REPEAT = 10
STAIRCASE_CAP = 40

VERDICT_FIELDS = ("char0", "char2", "char3", "char5")


def minimalize(gens):
    pool = sorted(set(gens))
    return tuple(m for m in pool
                 if not any(g != m and all(a <= b for a, b in zip(g, m)) for g in pool))


def format_monomial(m):
    parts = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(m) if e]
    return "*".join(parts) or "1"


def format_ideal(gens):
    return ", ".join(format_monomial(g) for g in gens)


def model_ideal(rng):
    """One ideal of the random model: zero monomials resampled, then minimalized."""
    gens = []
    for _ in range(rng.randint(1, MODEL_MAX_GENS)):
        m = (0, 0, 0, 0)
        while not any(m):
            m = tuple(rng.randint(0, MODEL_MAX_EXP) for _ in range(4))
        gens.append(m)
    return minimalize(gens)


def staircase_degree(q):
    """Total degree for q generators.  It grows with q, keeping the pool
    of monomials of that degree a few times larger than q; a low degree
    keeps the lcm lattice in the hundreds to low thousands, so the
    quadruple scan is the largest cost, as it is for large q."""
    return q // 4 + 1


def staircase_ideal(rng, q):
    """q distinct monomials of one total degree: an antichain by construction."""
    d = staircase_degree(q)
    pool = [(a, b, c, d - a - b - c)
            for a in range(d + 1) for b in range(d + 1 - a) for c in range(d + 1 - a - b)]
    return tuple(sorted(rng.sample(pool, q)))


def stream(workload, seed):
    return random.Random(f"betti4-bench/{workload}/{seed}")


def generate(workload, seed):
    """The workload's requests as lists of ideals, one list per CLI request."""
    rng = stream(workload, seed)
    if workload == "staircase":
        # sizes cycle, so a run that stops part way through the list has
        # still sent every size about equally often
        sizes = [q for _ in range(STAIRCASE_REPEAT) for q in range(STAIRCASE_MIN, STAIRCASE_MAX + 1)]
        return [[staircase_ideal(rng, q)] for q in sizes]
    batches = [[model_ideal(rng) for _ in range(BATCH_SIZE)] for _ in range(BATCHES[workload])]
    batches[0][:len(PINNED)] = [gens for gens, _ in PINNED]
    return batches


def subcommand(workload):
    if workload == "verify":
        return ["verify"]
    if workload == "staircase":
        return ["betti", "--json", "--max-gens", str(STAIRCASE_CAP)]
    return ["betti", "--json"]


def warmup_argv(workload):
    """One request on the workload's subcommand, carrying the pinned examples."""
    return subcommand(workload) + [format_ideal(gens) for gens, _ in PINNED]


def request_argvs(workload, batches, directory):
    """CLI argument lists, one per request; batch workloads read files written here."""
    if workload == "staircase":
        return [subcommand(workload) + [format_ideal(ideal)] for [ideal] in batches]
    argvs = []
    for index, batch in enumerate(batches):
        path = os.path.join(directory, f"{workload}-{index:03d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(format_ideal(gens) + "\n" for gens in batch))
        argvs.append(subcommand(workload) + ["--file", path])
    return argvs


_VERIFY_LINE = re.compile(r"line (\d+): ((?:char\d+=\w+ ?)+)  betti=\[([\d, ]*)\]  \[(.*)\]")


def _betti_json_ok(line, gens, want):
    try:
        record = json.loads(line)
    except ValueError:
        return False
    return (
        isinstance(record, dict)
        and record.get("schema") == 1
        and sorted(record.get("generators", ())) == sorted(map(format_monomial, gens))
        and record.get("betti") == list(want)
        and record.get("pd") == max(i for i, b in enumerate(want) if b)
        and isinstance(record.get("pd2_condition"), bool)
    )


def _verify_ok(line, number, gens, want):
    match = _VERIFY_LINE.fullmatch(line)
    if not match:
        return False
    verdicts = dict(v.split("=") for v in match.group(2).split())
    betti = [int(b) for b in match.group(3).split(",")] if match.group(3) else []
    return (
        int(match.group(1)) == number
        and sorted(verdicts) == sorted(VERDICT_FIELDS)
        and set(verdicts.values()) == {"ok"}
        and betti == list(want)
        and sorted(match.group(4).split(", ")) == sorted(map(format_monomial, gens))
    )


def check(workload, ideals, expected, code, out, err):
    """Per ideal, whether the CLI answered it correctly.

    An ideal fails on a missing or malformed output line, a wrong table
    or a FAIL verdict.  Every ideal of a request fails when the request
    exits non-zero, writes to stderr, or prints the wrong number of
    lines (verify's mismatch details come with exit code 1).
    """
    lines = out.splitlines()
    if code != 0 or err or len(lines) != len(ideals):
        return [False] * len(ideals)
    if workload == "verify":
        return [_verify_ok(line, number, gens, expected[gens])
                for number, (line, gens) in enumerate(zip(lines, ideals), start=1)]
    return [_betti_json_ok(line, gens, expected[gens]) for line, gens in zip(lines, ideals)]
