"""Independent cocycle-morphism oracle: brute-force search over every hom-set slot.

Each candidate assigns one arrow of hom(a_i(w), a'_k(w)) to every chart pair
(i, k) and every point w of their overlap, and is kept only if it passes the
M1/M2 check.  Exponential in the number of slots, so it runs under a budget.
"""

from __future__ import annotations

import itertools
import math

from finstack.errors import BudgetExceeded
from finstack.category import sorted_ids
from finstack.torsor import (
    DEFAULT_SEARCH_BUDGET,
    Cocycle,
    CocycleMorphism,
    check_cocycle_morphism,
)


def search_space(c: Cocycle, c2: Cocycle) -> int:
    """Number of assignments the search ranges over."""
    g = c.target
    return math.prod(len(g.hom(c.a[i][w], c2.a[k][w]))
                     for i in c.cov.indices() for k in c2.cov.indices()
                     for w in set(c.cov.cover[i]) & set(c2.cov.cover[k]))


def search_cocycle_morphism(c: Cocycle, c2: Cocycle,
                            budget: int = DEFAULT_SEARCH_BUDGET) -> CocycleMorphism | None:
    """Brute-force search for morphism data; None when no assignment satisfies M1/M2."""
    g = c.target
    slots = []
    for i in c.cov.indices():
        for k in c2.cov.indices():
            for w in sorted_ids(set(c.cov.cover[i]) & set(c2.cov.cover[k])):
                options = g.hom(c.a[i][w], c2.a[k][w])
                if not options:
                    return None
                slots.append(((i, k, w), options))
    tried = 0
    for choice in itertools.product(*[options for _, options in slots]):
        tried += 1
        if tried > budget:
            raise BudgetExceeded(f"morphism search exceeded {budget} assignments")
        delta: dict = {}
        for ((i, k, w), _), arrow in zip(slots, choice):
            delta.setdefault((i, k), {})[w] = arrow
        for i in c.cov.indices():
            for k in c2.cov.indices():
                delta.setdefault((i, k), {})
        if check_cocycle_morphism(c, c2, delta):
            return CocycleMorphism(source=c, target_cocycle=c2, delta=delta)
    return None
