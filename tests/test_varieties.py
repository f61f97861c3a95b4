import dataclasses
import gc
import itertools
import weakref

import pytest

from emalg import varieties
from emalg.algebra import (
    generated_tuples,
    is_morphism,
    one_element_algebra,
    product,
    word_algebra,
)
from emalg.automata import Dfa, dfa_to_recognizer, parse_regex, words_up_to
from emalg.core import SortedOrderedSet
from emalg.lawsuite import exists_a, finitely_many_a
from emalg.monads import OMEGA_UP, SORT_WORD, WORD, Var, Word
from emalg.profinite import identity_library, satisfies_all
from emalg.syntactic import syntactic_algebra
from emalg.varieties import (
    DividesWitness,
    SearchBoundExceeded,
    canonical_cover,
    divides,
    generated_membership,
    verify_cover_evaluation,
)
from tests.test_algebra import bool_tree_algebra


def zmod(n):
    carrier = SortedOrderedSet({SORT_WORD: list(range(n))})
    return word_algebra(
        carrier, {(a, b): (a + b) % n for a in range(n) for b in range(n)}
    )


def syn_of(rx, alphabet=None):
    return syntactic_algebra(dfa_to_recognizer(parse_regex(rx, alphabet)))


def test_divides_reflexive():
    for alg in (zmod(2), zmod(3), syn_of("(a|b)*aa(a|b)*").syn_algebra):
        ok, wit = divides(alg, alg)
        assert ok and wit.verify()


def test_a_witness_that_does_not_hold_fails_verification():
    """``verify`` refuses a graph with one pair's candidate changed or with
    one pair dropped, seed pairs whose closure is not a function, and seed
    pairs whose closure is a surjective function out of order."""
    z2 = zmod(2)
    ok, wit = divides(z2, z2)
    assert ok and wit.verify() and wit.graph == {(0, 0), (1, 1)}
    assert not dataclasses.replace(wit, graph=frozenset({(0, 1), (1, 1)})).verify()
    assert not dataclasses.replace(wit, graph=frozenset({(1, 1)})).verify()
    # the closure is all of Z/2 x Z/2: neither it nor a map inside it verifies
    seeds = [(1, 1), (1, 0)]
    closure = generated_tuples([z2, z2], seeds)
    assert len(closure) == 4
    for graph in [closure, *({(0, x), (1, y)} for x, y in itertools.product((0, 1), repeat=2))]:
        assert not DividesWitness(z2, z2, seeds, frozenset(graph)).verify()
    # U1 onto itself by the identity, first under its order, then reversed
    def u1(order):
        mult = {(x, y): "one" if x == y == "one" else "zero" for x in ("one", "zero") for y in ("one", "zero")}
        return word_algebra(SortedOrderedSet({SORT_WORD: ["one", "zero"]}, [order]), mult)

    up, down = u1(("zero", "one")), u1(("one", "zero"))
    seeds = [("one", "one"), ("zero", "zero")]
    assert DividesWitness(up, up, seeds, frozenset(seeds)).verify()
    assert not DividesWitness(up, down, seeds, frozenset(seeds)).verify()


def test_one_element_divides_everything():
    one = one_element_algebra(WORD)
    for alg in (zmod(2), syn_of("(a|b)*ab").syn_algebra):
        ok, wit = divides(one, alg)
        assert ok and wit.verify()


def test_no_group_divisor_of_aperiodic():
    syn = syn_of("(a|b)*aa(a|b)*").syn_algebra
    ok, _ = divides(zmod(2), syn)
    assert not ok
    ok, _ = divides(zmod(3), zmod(2))
    assert not ok


def test_divides_transitive_on_instances():
    z4, z2 = zmod(4), zmod(2)
    one = one_element_algebra(WORD)
    p = product([z4, z4])
    chain = [(one, z2), (z2, z4), (z4, p)]
    for a, b in chain:
        assert divides(a, b)[0]
    # transitivity along the chain
    assert divides(one, z4)[0]
    assert divides(z2, p)[0]
    assert divides(one, p)[0]


def test_divides_budget():
    big = syn_of("(a|b)*aa(a|b)*").syn_algebra
    with pytest.raises(SearchBoundExceeded):
        divides(big, product([big, big]), max_steps=10)


def test_canonical_cover_one_element():
    cov = canonical_cover(one_element_algebra(WORD))
    assert len(cov.cover.carrier) == 1
    assert cov.mu.is_surjective()


def test_canonical_cover_z2():
    cov = canonical_cover(zmod(2))
    assert cov.mu.is_surjective()
    assert is_morphism(cov.mu.fn, cov.mu.source, cov.mu.target)
    assert len(cov.cover.carrier) == 2
    words = [Word(w) for w in words_up_to([0, 1], 3)]
    assert verify_cover_evaluation(cov, words)


def test_canonical_cover_syn_aa():
    syn = syn_of("(a|b)*aa(a|b)*").syn_algebra
    cov = canonical_cover(syn)
    assert cov.mu.is_surjective()
    assert len(cov.components) == 5
    # the cover is a subalgebra of the component product by construction:
    # every element is a tuple of component values of matching length
    for t in cov.cover.carrier:
        assert len(t) == len(cov.components)
    words = [Word(w) for w in itertools.islice(words_up_to(list(syn.carrier), 2), 100)]
    assert verify_cover_evaluation(cov, words)


def _pools(alg):
    return {s: alg.carrier.elements(s) for s in alg.carrier.sorts}


def test_omega_covers_replay_every_free_element():
    for build in (finitely_many_a, exists_a):
        alg, _ = build()
        elements = list(OMEGA_UP.free_elements(_pools(alg), 3))
        assert len(elements) == 124
        assert verify_cover_evaluation(canonical_cover(alg), elements)


def _variables(node):
    if isinstance(node, Var):
        yield node.index
    else:
        for child in node.children:
            yield from _variables(child)


def test_a_tree_cover_replays_the_trees_with_ordered_variables():
    # eval_element evaluates exactly the trees whose variables are
    # x0..x{k-1} in order; the bare-slot entries let it evaluate every one
    alg = bool_tree_algebra(2, with_var_slots=True)
    trees = [
        t for t in alg.monad.free_elements(_pools(alg), 3)
        if list(_variables(t.root)) == list(range(t.sort))
    ]
    assert len(trees) == 202
    assert verify_cover_evaluation(canonical_cover(alg), trees)


def test_canonical_cover_requires_generation():
    z3 = zmod(3)
    with pytest.raises(ValueError):
        # restricting to no sorts cannot generate anything
        canonical_cover(z3, delta=[])


def test_canonical_cover_two_sorted():
    from emalg.algebra import is_morphism
    from emalg.lawsuite import finitely_many_a

    alg, _ = finitely_many_a()
    cov = canonical_cover(alg)
    assert len(cov.components) == 4
    assert cov.mu.is_surjective()
    assert is_morphism(cov.mu.fn, cov.mu.source, cov.mu.target)
    # the finite sort alone generates (its infinite-power images close up)
    cov_fin = canonical_cover(alg, delta=[1])
    assert cov_fin.mu.is_surjective()


def test_generated_membership():
    z2, z3 = zmod(2), zmod(3)
    v, wit = generated_membership(z2, [z2])
    assert v is True and wit.verify()
    one = one_element_algebra(WORD)
    v, _ = generated_membership(one, [z3])
    assert v is True
    v, _ = generated_membership(z3, [z2], max_product_arity=3)
    assert v is not True  # never a witness; exhaustive search says no


def test_generated_membership_builds_each_product_once(monkeypatch):
    # U1 divides neither group, so each search tries U1, U1^2 and U1^3;
    # the two products are built on the first call and shared after it
    built = []
    monkeypatch.setattr(varieties, "product", lambda algs: built.append(len(algs)) or product(algs))
    u1 = word_algebra(SortedOrderedSet({SORT_WORD: [0, 1]}), {(x, y): min(x, y) for x in (0, 1) for y in (0, 1)})
    for n in (2, 3, 2):
        assert generated_membership(zmod(n), [u1]) == (False, None)
    assert built == [2, 3]
    assert generated_membership(zmod(2), [u1, zmod(2)])[0] is True
    assert built == [2, 3]  # the group divides itself before any product


def test_generated_membership_keeps_no_algebra_alive():
    # the division search memoises on the algebras themselves: U1 x U1 is
    # memoised on U1 by (U1,), a reference cycle through U1's memo that the
    # garbage collector frees once nothing else holds U1
    A = zmod(2)
    g = word_algebra(SortedOrderedSet({SORT_WORD: [0, 1]}), {(x, y): min(x, y) for x in (0, 1) for y in (0, 1)})
    assert generated_membership(A, [g]) == (False, None)
    refs = [weakref.ref(A), weakref.ref(g)]
    del A, g
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_variety_language_closure_harness():
    """Languages of aperiodic syntactic algebras are closed under boolean
    combinations, inverse relabellings and derivatives: build each closure
    instance as an automaton and re-decide."""
    lib = identity_library()["APERIODIC"]

    def is_ap(dfa):
        return satisfies_all(
            syntactic_algebra(dfa_to_recognizer(dfa)).syn_algebra, lib
        )[0]

    aa = parse_regex("(a|b)*aa(a|b)*")
    ab = parse_regex("(a|b)*ab")
    ba = parse_regex("b*a*")
    assert all(is_ap(d) for d in (aa, ab, ba))

    def product_dfa(d1, d2, accept):
        states = {}
        order = []

        def idx(p):
            if p not in states:
                states[p] = len(order)
                order.append(p)
            return states[p]

        start = idx((d1.start, d2.start))
        trans = {}
        i = 0
        while i < len(order):
            q1, q2 = order[i]
            for c in d1.alphabet:
                trans[(i, c)] = idx((d1.trans[(q1, c)], d2.trans[(q2, c)]))
            i += 1
        accepting = frozenset(
            i for i, (q1, q2) in enumerate(order) if accept(q1 in d1.accepting, q2 in d2.accepting)
        )
        return Dfa(d1.alphabet, len(order), start, accepting, trans)

    union = product_dfa(aa, ab, lambda x, y: x or y)
    inter = product_dfa(aa, ba, lambda x, y: x and y)
    assert is_ap(union) and is_ap(inter)

    # inverse relabelling under a -> ab, b -> b
    def inverse_image(dfa, h):
        def run(q, w):
            for c in w:
                q = dfa.trans[(q, c)]
            return q

        trans = {
            (q, c): run(q, h[c]) for q in range(dfa.n_states) for c in h
        }
        return Dfa(tuple(h), dfa.n_states, dfa.start, dfa.accepting, trans)

    h = {"a": "ab", "b": "b"}
    assert is_ap(inverse_image(aa, h))
    assert is_ap(inverse_image(ab, h))

    # derivative: words w with  a . w . b  in the language
    def derivative(dfa, left, right):
        def run(q, w):
            for c in w:
                q = dfa.trans[(q, c)]
            return q

        start = run(dfa.start, left)
        accepting = frozenset(
            q for q in range(dfa.n_states) if run(q, right) in dfa.accepting
        )
        return Dfa(dfa.alphabet, dfa.n_states, start, accepting, dfa.trans)

    for d in (aa, ab, ba):
        assert is_ap(derivative(d, "a", "b"))
        assert is_ap(derivative(d, "", "ab"))