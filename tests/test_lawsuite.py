import itertools
import random

import pytest

from emalg import algebra, lawsuite
from emalg.algebra import product
from emalg.core import SortedOrderedSet
from emalg.profinite import identity_library, satisfies_all
from emalg.lawsuite import (
    _all_preorders,
    _bounded_quotient_compatibility,
    check_monad_laws,
    rand_preorder,
    rand_transformation_algebra,
    run_all,
    small_semigroups,
)
from emalg.monads import (
    MixedWord,
    OmegaMonad,
    TreeMonad,
    UPWord,
    Var,
    Word,
    WordMonad,
    _node,
    _tree,
)
from tests import _reference


def _brute_force_lattice(mult, elems):
    """Every nonempty subset that contains all products of its members."""
    out = set()
    for r in range(1, len(elems) + 1):
        for subset in itertools.combinations(elems, r):
            s = frozenset(subset)
            if all(mult[(a, b)] in s for a in s for b in s):
                out.add(s)
    return out


def _small_products():
    algs = small_semigroups(2)
    for i, a in enumerate(algs):
        for b in algs[i:]:
            if len(a.carrier) * len(b.carrier) <= 9:
                yield product([a, b])


# Recorded before tree construction and the subalgebra lattice were
# rewritten for speed.  Any change in the order of the random draws changes
# these values.
FAST_SEED0_DETAILS = {
    "monad-laws": (
        "word: 363 elements to size 5, 24492 nestings to sizes 2/2/2; "
        "omega: 444 elements to size 4, 11916 nestings to sizes 2/1/2; "
        "tree: 460 elements to size 4, 8730 nestings to sizes 2/1/2; 0 violations"
    ),
    "congruence-characterisations": "50 preorders, 33 congruences, 0 disagreements",
    "terminality": "10 recognizers, 0 failures",
    "syntactic-constants": "sizes 5 and 2, witnesses match",
    "derivative-decomposition": "768 membership comparisons, 0 failures",
    "dual-decider-agreement": "12 languages, verdicts and minimal ranks stable",
    "theory-constants": "1 class at rank 0 and 3 at rank 1; table matches",
    "wilke-invariance": "3 algebras x 100 pairs, 0 failures",
    "canonical-covers": "6 algebras covered and verified",
    "mod-closure": "6 aperiodic members of 9; closure holds",
}


def test_fast_battery_details_are_pinned():
    results = run_all(seed=0, fast=True)
    assert {r.name: r.detail for r in results} == FAST_SEED0_DETAILS
    assert all(r.ok for r in results)


def test_product_problems_match_a_direct_check_of_every_subalgebra():
    """mod-closure decides x^w x = x^w per element.  The reference checks
    the powers of each element, and every member of the brute-force
    subalgebra lattice is aperiodic exactly when no element is flagged.
    The products here include non-aperiodic factors, so both verdicts
    occur."""
    from emalg.lawsuite import _product_problems

    def aperiodic(mult, subset):
        for x in subset:
            e = x
            while mult[(e, e)] != e:
                e = mult[(e, x)]
            if mult[(e, x)] != e:
                return False
        return True

    found = 0
    for p in _small_products():
        elems = list(p.carrier)
        want = [
            "cyclic subalgebra of product not aperiodic"
            for x in elems
            if not aperiodic(p.mult, [x])
        ]
        got = _product_problems(p)
        assert got == want
        lattice = _brute_force_lattice(p.mult, elems)
        assert all(aperiodic(p.mult, s) for s in lattice) == (not got)
        found += bool(want)
    assert 0 < found < 39


def test_mod_closure_catches_a_non_aperiodic_product(monkeypatch):
    """With ``product`` answering Z2, a group, the per-element pass must
    flag the product."""
    z2 = next(
        a
        for a in small_semigroups(2)
        if len(a.carrier) == 2 and not satisfies_all(a, identity_library()["APERIODIC"])[0]
    )
    monkeypatch.setattr(lawsuite, "product", lambda algs: z2)
    result = lawsuite.check_mod_closure(max_size=2)
    assert not result.ok
    assert "cyclic subalgebra of product not aperiodic" in result.detail


# -- flat mutants that the monad-law check must catch ---------------------------


def _repeat_last_at_5(flat):
    def mutant(self, t):
        w = flat(self, t).labels
        return Word(w + w[-1:] if len(w) >= 5 else w)

    return mutant


def _reverse_at_outer_3(flat):
    def mutant(self, t):
        w = flat(self, t).labels
        return Word(w[::-1] if len(t.labels) >= 3 else w)

    return mutant


def _prefix_after_tail_run(tail_type):
    """Flattening u.t with t of ``tail_type`` puts t's own run before u's."""

    def mutate(flat):
        def mutant(self, t):
            if isinstance(t, MixedWord) and isinstance(t.tail, tail_type):
                run = flat(self, Word(t.prefix)).labels if t.prefix else ()
                tail = t.tail
                if tail_type is UPWord:
                    return UPWord(tail.prefix + run, tail.period)
                return MixedWord(tail.prefix + run, tail.tail)
            return flat(self, t)

        return mutant

    return mutate


def _swap_binary_children(flat):
    def mutant(self, t):
        r = flat(self, t)

        def go(n):
            if isinstance(n, Var):
                return n
            children = tuple([go(c) for c in n.children])
            return _node(n.label, children[::-1] if len(children) == 2 else children)

        return _tree(go(r.root), r.sort)

    return mutant


def _renumber_variables(flat):
    """The variables of the result renumbered in order of appearance."""

    def mutant(self, t):
        r = flat(self, t)
        seen = []

        def go(n):
            if isinstance(n, Var):
                seen.append(n)
                return Var(len(seen) - 1)
            return _node(n.label, tuple([go(c) for c in n.children]))

        return _tree(go(r.root), r.sort)

    return mutant


FLAT_MUTANTS = {
    "word-repeat-last-label-at-5": (WordMonad, _repeat_last_at_5),
    "word-reverse-at-outer-3": (WordMonad, _reverse_at_outer_3),
    "omega-upword-tail-run-first": (OmegaMonad, _prefix_after_tail_run(UPWord)),
    "omega-mixed-tail-run-first": (OmegaMonad, _prefix_after_tail_run(MixedWord)),
    "tree-swap-binary-children": (TreeMonad, _swap_binary_children),
    "tree-renumber-variables": (TreeMonad, _renumber_variables),
}


@pytest.mark.parametrize("name", sorted(FLAT_MUTANTS))
def test_monad_laws_catch_flat_mutants(name, monkeypatch):
    cls, mutate = FLAT_MUTANTS[name]
    monkeypatch.setattr(cls, "flat", mutate(cls.flat))
    result = check_monad_laws()
    assert not result.ok
    assert not result.detail.endswith("; 0 violations")


# -- the bounded congruence definition and the preorder enumeration --------------


def _congruence_cases():
    """3,000 seeded (algebra, preorder) pairs, with up to 6 drawn pairs
    each, so that both verdicts occur."""
    for seed in range(6):
        rng = random.Random(seed)
        for _ in range(500):
            alg = rand_transformation_algebra(rng)
            yield alg, rand_preorder(rng, alg.carrier, extra_pairs=6)


def test_grown_compatibility_oracle_matches_the_word_enumeration():
    verdicts = []
    for alg, q in _congruence_cases():
        got = _bounded_quotient_compatibility(alg, q)
        assert got == _reference.bounded_quotient_compatibility(alg, q), (alg, q)
        verdicts.append(got)
    assert len(verdicts) == 3000
    assert 0 < sum(verdicts) < len(verdicts)


def test_compatibility_oracle_shares_no_code_with_the_library_walk(monkeypatch):
    """The congruence check compares three criteria; the bounded definition
    is only a witness if it answers without the library's walk."""

    def broken(*args, **kwargs):
        raise AssertionError("the library walk was called")

    cases = list(itertools.islice(_congruence_cases(), 200))
    want = [_reference.bounded_quotient_compatibility(alg, q) for alg, q in cases]
    monkeypatch.setattr(algebra, "_incompatibility", broken)
    monkeypatch.setattr(algebra, "_walk_rows", broken)
    monkeypatch.setattr(algebra, "is_congruence_ordering", broken)
    monkeypatch.setattr(lawsuite, "is_congruence_ordering", broken)
    assert [_bounded_quotient_compatibility(alg, q) for alg, q in cases] == want
    assert 0 < sum(want) < len(want)


@pytest.mark.parametrize("n, count", [(1, 1), (2, 4), (3, 29), (4, 355)])
def test_all_preorders_counts_the_labelled_preorders(n, count):
    """OEIS A000798: the number of preorders on n labelled points."""
    carrier = SortedOrderedSet({0: list(range(n))})
    pairs = [q.pairs() for q in _all_preorders(carrier)]
    assert len(pairs) == len(set(pairs)) == count


def test_all_preorders_yields_the_mask_enumeration_sequence():
    for alg in small_semigroups(3):
        got = [q.pairs() for q in _all_preorders(alg.carrier)]
        assert got == [q.pairs() for q in _reference.all_preorders(alg.carrier)]


def test_backtracking_yields_the_brute_force_semigroup_tables():
    """Same tables in the same order, so ``small_semigroups`` keeps its
    representatives: 1, 8 and 113 associative tables on 1, 2, 3 elements."""
    counts = []
    for n in range(1, 4):
        got = list(lawsuite._semigroup_tables(n))
        assert got == list(_reference.semigroup_tables(n))
        counts.append(len(got))
    assert counts == [1, 8, 113]
