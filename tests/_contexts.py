"""Context literals for the tests.  A context is a free element with one
``HOLE`` label; these build them from the parts the tests write, under the
names of the shapes: a word's two sides, an omega-word's finite items,
period and tail, a tree."""

from emalg.algebra import _raw_up
from emalg.monads import HOLE, MixedWord, Word


def WordContext(left=(), right=()) -> Word:
    """left . hole . right."""
    return Word(tuple(left) + (HOLE,) + tuple(right))


def OmegaContext(items=(), period=None, tail=None):
    """The finite ``items``, then the loop ``period`` (kept raw) or the
    infinite ``tail``; with neither the result is finite."""
    if period is not None:
        return _raw_up(items, period)
    if tail is not None:
        return MixedWord(items, tail)
    return Word(items)


def TreeContext(tree):
    """A tree with one hole-labelled node is its own context."""
    return tree


def sides(ctx: Word) -> tuple:
    """The labels left and right of a word context's hole."""
    i = ctx.labels.index(HOLE)
    return ctx.labels[:i], ctx.labels[i + 1 :]
