"""Shared strategies and helpers for the suite."""

import random

import hypothesis.strategies as st
from hypothesis import settings

from betti4.monomials import MonomialIdeal, minimalize

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


def ideal_of(*gens):
    return MonomialIdeal(minimalize(gens))


def staircase(q, seed):
    """q distinct monomials of total degree q // 4 + 1: an antichain."""
    d = q // 4 + 1
    pool = [(a, b, c, d - a - b - c)
            for a in range(d + 1) for b in range(d + 1 - a) for c in range(d + 1 - a - b)]
    return MonomialIdeal(tuple(sorted(random.Random(seed).sample(pool, q))))


def monomials(max_exp=4):
    exp = st.integers(min_value=0, max_value=max_exp)
    return st.tuples(exp, exp, exp, exp).filter(any)


def ideals(max_gens=6, max_exp=4):
    return st.lists(monomials(max_exp), min_size=1, max_size=max_gens).map(
        lambda gens: MonomialIdeal(minimalize(gens))
    )


def permutations_of_4():
    return st.permutations(range(4)).map(tuple)
