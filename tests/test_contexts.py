"""Contexts as free elements with one hole: the pin of the saturated
witnesses, and composition, which is the monad's ``flat``, checking the
inner context's sort against the outer hole."""

import hashlib

import pytest

from emalg.monads import HOLE, SortMismatch, parse_tree
from emalg.syntactic import (
    OmegaContext,
    TreeContext,
    WordContext,
    context_compose,
    context_to_str,
    saturate_all,
    syntactic_algebra,
)
from tests.test_algebra_tables import _recognizers
from tests.test_syntactic import _refinement_cases

# -- the saturated witnesses ---------------------------------------------------------


def _saturation_text(alg) -> str:
    """Each context function's sorts and witness, in saturation order."""
    return "\n".join(
        f"{source} {target} {context_to_str(f.witness, repr)}"
        for (source, target), fns in saturate_all(alg).items()
        for f in fns
    )


def _saturated_algebras():
    """Every algebra of the refinement cases, then the algebra, image and
    syntactic algebra of each omega and tree recognizer."""
    yield from dict.fromkeys(alg for alg, _, _ in _refinement_cases())
    for rec in _recognizers():
        syn = syntactic_algebra(rec)
        yield from (rec.algebra, syn.image.algebra, syn.syn_algebra)


SATURATION_PIN = "a6d3b3786f099ce78cc15a20854ce5f12758281c03101ad6a87d6c7e932ee1bd"


def test_saturated_witnesses_are_pinned():
    text = "\n".join(_saturation_text(alg) for alg in _saturated_algebras())
    assert text.count("\n") + 1 == 258 + 288
    assert hashlib.sha256(text.encode()).hexdigest() == SATURATION_PIN


# -- composition is flat -----------------------------------------------------------


def test_a_tree_context_takes_an_inner_context_of_its_hole_sort_only():
    outer = TreeContext(parse_tree("b(_(x0,x1))", allow_hole=True))
    wide = TreeContext(parse_tree("u(_(x0,x1))", allow_hole=True))
    assert context_to_str(context_compose(outer, wide)) == "b(u(_(x0,x1)))"
    # an inner context of sort 1 in a hole of sort 2 would leave b(u(_(x0)))
    # claiming sort 2 with one variable
    narrow = TreeContext(parse_tree("u(_(x0))", allow_hole=True))
    with pytest.raises(SortMismatch):
        context_compose(outer, narrow)


def test_an_omega_context_takes_an_inner_context_of_its_hole_sort_only():
    finite_hole = OmegaContext(("h", HOLE))
    loop = OmegaContext(("n",), (HOLE,))
    infinite_hole = OmegaContext(("h",), None, HOLE)
    with pytest.raises(SortMismatch):
        context_compose(finite_hole, loop)
    with pytest.raises(SortMismatch):
        context_compose(loop, infinite_hole)
    with pytest.raises(SortMismatch):
        context_compose(infinite_hole, finite_hole)
    assert context_to_str(context_compose(infinite_hole, loop)) == "[h,n]([_])^w"
    assert context_to_str(context_compose(loop, finite_hole)) == "[n]([h,_])^w"


def test_contexts_of_two_instances_do_not_compose():
    word = WordContext(("x",), ())
    finite = OmegaContext(("x", HOLE))
    tree = TreeContext(parse_tree("u(_)", allow_hole=True))
    for outer, inner in ((word, finite), (finite, word), (word, tree), (tree, finite)):
        with pytest.raises(TypeError, match="cannot compose"):
            context_compose(outer, inner)
