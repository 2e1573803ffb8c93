"""Shared strategies and helpers for the suite."""

import os
import random
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import settings

import betti4
from betti4.monomials import MonomialIdeal
from betti4.parsing import DEFAULT_EXP_CAP

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


def ideal_of(*gens):
    return MonomialIdeal(gens)


class CountedColumn(dict):
    """A generator column that counts the lookups made in it."""

    reads = 0

    def __getitem__(self, v):
        CountedColumn.reads += 1
        return super().__getitem__(v)


def staircase(q, seed):
    """q distinct monomials of total degree q // 4 + 1: an antichain."""
    d = q // 4 + 1
    pool = [(a, b, c, d - a - b - c)
            for a in range(d + 1) for b in range(d + 1 - a) for c in range(d + 1 - a - b)]
    return MonomialIdeal(random.Random(seed).sample(pool, q))


def monomials(max_exp=4):
    exp = st.integers(min_value=0, max_value=max_exp)
    return st.tuples(exp, exp, exp, exp).filter(any)


def ideals(max_gens=6, max_exp=4):
    return st.lists(monomials(max_exp), min_size=1, max_size=max_gens).map(
        lambda gens: MonomialIdeal(gens)
    )


@st.composite
def wide_ideals(draw, max_gens=8):
    """Ideals with exponents up to DEFAULT_EXP_CAP, each variable under its
    own drawn maximum, so columns of very different heights meet."""
    caps = draw(st.tuples(*[st.integers(0, DEFAULT_EXP_CAP)] * 4))
    exps = st.tuples(*(st.integers(0, cap) for cap in caps))
    return MonomialIdeal(draw(st.lists(exps, min_size=1, max_size=max_gens)))


def permutations_of_4():
    return st.permutations(range(4)).map(tuple)


def model_ideals():
    """Ideals of the random model: at most 8 generators, exponent at most 4."""
    # imported here, not at the top: the command line loads the engine, and
    # a module that draws no model ideal must still run if that import fails
    from betti4.cli import sample_ideal

    return st.integers(0, 2**32).map(lambda seed: sample_ideal(random.Random(seed), 8, 4))


def model_or_staircase(max_q=28):
    """Random-model ideals and same-degree staircase antichains of up to
    max_q generators."""
    return st.one_of(
        model_ideals(),
        st.builds(staircase, st.integers(1, max_q), st.integers(0, 2**32)),
    )


def is_cone(ideal, m):
    """True iff x^(m - supp m) lies in the ideal."""
    below = tuple(x - 1 if x else 0 for x in m)
    return any(all(h <= b for h, b in zip(g, below)) for g in ideal.gens)


def _checkout_env():
    """The environment with this checkout's src directory first on the module path."""
    src = str(Path(betti4.__file__).parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_checkout(*argv, check=False):
    """A new interpreter run with argv that imports this checkout's betti4,
    as a CompletedProcess with text output."""
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=_checkout_env(), timeout=60, check=check)


def start_checkout(*argv, stderr):
    """A new interpreter started with argv that imports this checkout's
    betti4, as a Popen with a text pipe for stdout; stderr goes to the
    given file, so a child that only reports errors cannot block on a
    full pipe while the caller waits for its stdout."""
    return subprocess.Popen([sys.executable, *argv], stdout=subprocess.PIPE,
                            stderr=stderr, text=True, env=_checkout_env())


def run_fresh_interpreter(code, *options):
    """stdout of code run by a new interpreter (with the given command-line
    options) that imports this checkout's betti4; fails on a nonzero exit."""
    return run_checkout(*options, "-c", code, check=True).stdout
