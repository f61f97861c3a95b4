"""Seeded samplers of transformation algebras, preorders and recognizers,
for tests that draw their inputs from ``random.Random(seed)``.  The law
battery itself enumerates declared scopes and draws nothing."""

from emalg.algebra import FinAlgebra, Recognizer, subalgebra_generated, word_algebra
from emalg.core import Preorder, SortedOrderedSet
from emalg.monads import SORT_WORD


def rand_transformation_algebra(rng, max_carrier=5, n_points=3) -> FinAlgebra:
    """A genuine finite semigroup: the closure of random transformations."""
    while True:
        k = rng.randint(1, 3)
        gens = [
            tuple(rng.randrange(n_points) for _ in range(n_points)) for _ in range(k)
        ]
        elems = list(dict.fromkeys(gens))
        frontier = list(elems)
        while frontier and len(elems) <= max_carrier:
            new = []
            for t in frontier:
                for g in elems[:]:
                    for c in (tuple(g[q] for q in t), tuple(t[q] for q in g)):
                        if c not in elems:
                            elems.append(c)
                            new.append(c)
            frontier = new
        if len(elems) <= max_carrier:
            carrier = SortedOrderedSet({SORT_WORD: elems})
            mult = {
                (s, t): tuple(t[q] for q in s) for s in elems for t in elems
            }
            return word_algebra(carrier, mult)


def rand_preorder(rng, carrier: SortedOrderedSet, extra_pairs=3) -> Preorder:
    pairs = list(carrier.leq_pairs())
    elems = list(carrier)
    for _ in range(rng.randint(0, extra_pairs)):
        a, b = rng.choice(elems), rng.choice(elems)
        if carrier.sort_of(a) == carrier.sort_of(b):
            pairs.append((a, b))
    return Preorder(carrier, pairs)


def rand_recognizer(rng, letters="ab", n_points=3) -> Recognizer:
    alg = rand_transformation_algebra(rng, max_carrier=27, n_points=n_points)
    elems = list(alg.carrier)
    assignment = {c: rng.choice(elems) for c in letters}
    sub = subalgebra_generated(alg, set(assignment.values()))
    accepting = frozenset(
        e for e in sub.algebra.carrier if rng.random() < 0.5
    )
    alphabet = SortedOrderedSet({SORT_WORD: list(letters)})
    return Recognizer(alphabet, sub.algebra, assignment, accepting)
