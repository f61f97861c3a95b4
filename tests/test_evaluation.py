"""Evaluation, contexts and generated subalgebras over the signature: the
witness pin of ``subalgebra_generated`` and the ill-sorted inputs that
``eval_element`` and ``context_apply`` reject."""

import hashlib
import random

import pytest

from emalg.algebra import (
    eval_element,
    generated_tuples,
    restrict_sorts,
    subalgebra_generated,
)
from emalg.automata import dfa_to_recognizer, parse_regex
from emalg.lawsuite import finitely_many_a
from emalg.monads import (
    HOLE,
    SORT_FIN,
    SORT_INF,
    MixedWord,
    Node,
    SortMismatch,
    Tree,
    UPWord,
    Var,
    Word,
    parse_tree,
    serialize,
)
from emalg.syntactic import context_to_str
from tests._contexts import OmegaContext, TreeContext, WordContext
from tests._reference import context_apply
from tests._samplers import rand_recognizer
from tests.test_algebra import bool_tree_algebra, zmod
from tests.test_algebra_tables import _recognizers

# -- the witnesses of generated subalgebras ------------------------------------------


def _generated(alg, gens) -> str:
    """Each element with its witness, in discovery order."""
    wit = subalgebra_generated(alg, gens).witnesses
    return "\n".join(f"{e!r} -> {serialize(w, repr)}" for e, w in wit.items())


def _witness_cases():
    for letter in "ab":
        for k in range(5):
            rec = dfa_to_recognizer(parse_regex("(a|b)*" + letter + "(a|b)" * k))
            yield rec.algebra, list(rec.assignment.values())
    rng = random.Random(0)
    for _ in range(50):
        rec = rand_recognizer(rng)
        yield rec.algebra, list(rec.assignment.values())
    for rec in _recognizers():
        if rec.algebra.kind == "omega":
            gens = list(rec.assignment.values())
            yield rec.algebra, gens
            # an infinite generator after the finite ones: omega(a) and
            # a.e can then first reach the same element in one step
            for e in rec.algebra.elements(SORT_INF):
                yield rec.algebra, gens + [e]
    for with_var_slots in (False, True):
        alg = bool_tree_algebra(2, with_var_slots=with_var_slots)
        elems = list(alg.carrier)
        rng = random.Random(1)
        for _ in range(30):
            yield alg, rng.sample(elems, rng.randint(1, 3))


def test_generated_witnesses_are_terms_over_the_generators_for_their_elements():
    for alg, gens in _witness_cases():
        sub = subalgebra_generated(alg, gens)
        monad, sort_of = alg.monad, alg.carrier.sort_of
        itself = {g: g for g in gens}
        for e, w in sub.witnesses.items():
            assert monad.element_sort(w) == sort_of(e)
            assert {a for a, _ in monad.labels(w)} <= set(gens)
            assert eval_element(alg, itself, w) == e
        closure = {t for (t,) in generated_tuples([alg], [(g,) for g in gens])}
        assert set(sub.witnesses) == set(sub.algebra.carrier) == closure


WITNESS_PIN = "246bc76b63ecc8f432077ace9e5de086d53edea4f7affec2ebe95e9ba1dc2513"


def test_generated_witnesses_are_pinned():
    text = "\n\n".join(_generated(alg, gens) for alg, gens in _witness_cases())
    assert hashlib.sha256(text.encode()).hexdigest() == WITNESS_PIN


def test_an_omega_algebra_restricted_to_its_finite_sort_generates_subalgebras():
    # no infinite element is left, so omega and mix have no entries to read
    alg, _ = finitely_many_a()
    sub = subalgebra_generated(restrict_sorts(alg, {SORT_FIN}), ["h", "n"])
    assert sub.witnesses == {"h": Word(("h",)), "n": Word(("n",))}
    assert list(sub.algebra.carrier) == ["n", "h"]


# -- ill-sorted input ------------------------------------------------------------------


def test_a_finite_position_that_holds_an_infinite_value_is_rejected():
    alg, _ = finitely_many_a()
    for t in (Word(("a", "b")), UPWord(("b",), ("a",)), MixedWord(("a",), "t")):
        with pytest.raises(SortMismatch, match="label 'a' maps to 'inf' of sort 2, not 1"):
            eval_element(alg, {"a": "inf", "b": "n", "t": "fin"}, t)
    with pytest.raises(SortMismatch):
        context_apply(alg, OmegaContext(("h", HOLE)), "fin")
    with pytest.raises(SortMismatch):
        context_apply(alg, OmegaContext((), (HOLE,), None), "inf")


def test_a_finite_mixed_word_tail_is_rejected():
    alg, _ = finitely_many_a()
    with pytest.raises(SortMismatch, match="label 't' maps to 'n' of sort 1, not 2"):
        eval_element(alg, {"a": "h", "t": "n"}, MixedWord(("a",), "t"))
    with pytest.raises(SortMismatch):
        eval_element(alg, {"t": "h"}, MixedWord((), "t"))


def test_a_tree_label_must_have_the_sort_of_its_child_count():
    alg = bool_tree_algebra()
    beta = {"b": (1, False), "c": (0, False)}
    with pytest.raises(SortMismatch, match=r"label 'b' maps to \(1, False\) of sort 1, not 2"):
        eval_element(alg, beta, parse_tree("b(c,c)"))
    with pytest.raises(SortMismatch):
        eval_element(alg, {"c": (1, False)}, parse_tree("c"))


def test_tree_variables_out_of_order_are_rejected():
    alg = bool_tree_algebra()
    beta = {"b": (2, False)}
    swapped = Tree(Node("b", (Var(1), Var(0))), 2)
    with pytest.raises(SortMismatch, match=r"tree variables \[1, 0\] are not x0..x1 in order"):
        eval_element(alg, beta, swapped)
    partial = Tree(Node("b", (Var(1), Node("c"))), 2)
    with pytest.raises(SortMismatch, match="not x0..x1 in order"):
        eval_element(alg, {"b": (2, False), "c": (0, False)}, partial)
    ctx = TreeContext(Tree(Node((2, False), (Var(1), Node(HOLE, (Var(0),)))), 2))
    with pytest.raises(SortMismatch, match="not x0..x1 in order"):
        context_apply(alg, ctx, (1, False))


def test_a_context_hole_of_the_wrong_sort_is_rejected():
    alg, _ = finitely_many_a()
    with pytest.raises(SortMismatch, match="label _ maps to 'n' of sort 1, not 2"):
        context_apply(alg, OmegaContext(("h",), None, HOLE), "n")
    with pytest.raises(SortMismatch, match="label _ maps to 'fin' of sort 2, not 1"):
        context_apply(alg, OmegaContext((HOLE,), None, "fin"), "fin")
    trees = bool_tree_algebra()
    ctx = TreeContext(Tree(Node((2, False), (Node(HOLE), Node((0, False)))), 0))
    assert context_apply(trees, ctx, (0, True)) == (0, True)
    with pytest.raises(SortMismatch, match=r"label _ maps to \(1, False\) of sort 1, not 0"):
        context_apply(trees, ctx, (1, False))


def test_a_free_element_of_another_instance_is_rejected():
    with pytest.raises(SortMismatch, match="not a word"):
        eval_element(zmod(2), {"c": 0}, parse_tree("c"))
    with pytest.raises(SortMismatch, match="not a tree"):
        eval_element(bool_tree_algebra(), {"a": (0, False)}, Word(("a",)))
    with pytest.raises(SortMismatch, match="not an omega-word element"):
        eval_element(finitely_many_a()[0], {"c": "n"}, parse_tree("c"))


def test_contexts_evaluate_and_print_as_free_elements():
    z3 = zmod(3)
    ctx = WordContext((1,), (1, 2))
    assert context_to_str(ctx, lambda a: f"e{a}") == "[e1,_,e1,e2]"
    assert [context_apply(z3, ctx, a) for a in range(3)] == [1, 2, 0]
    alg, _ = finitely_many_a()
    loop = OmegaContext(("h",), ("n", HOLE))
    assert context_to_str(loop) == "[h]([n,_])^w"  # raw: the hole stays in the period
    assert context_apply(alg, loop, "n") == "fin"
    assert context_apply(alg, loop, "h") == "inf"
