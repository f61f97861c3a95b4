"""The omega-term fragment of profinite terms: syntax, evaluation in finitary
algebras, and inequality satisfaction.

Only a fragment of the full space of profinite terms has finite syntax here:
variables, composition, and the idempotent power x^w (the limit of the
sequence of factorial powers, which in a finite algebra is the unique
idempotent among the powers of x).  That fragment is what the classical
axiomatisations (aperiodicity etc.) are written in; consequences of richer
limit points are out of scope and documented as such.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Optional

from .algebra import FinAlgebra, _apply, _evaluator, _fold
from .core import Elem
from .monads import SortMismatch


@dataclass(frozen=True)
class TermVar:
    name: str


@dataclass(frozen=True)
class TermSeq:
    """Composition by juxtaposition (left to right)."""

    items: tuple

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("sequences need at least two factors")


@dataclass(frozen=True)
class OmegaPow:
    """Idempotent power on a self-composable sort."""

    body: Any


@dataclass(frozen=True)
class InfPow:
    """Omega algebras only: the infinite power, landing in the infinite sort."""

    body: Any


@dataclass(frozen=True)
class TreeTerm:
    """A tree-shaped composition node: head applied to children."""

    head: Any
    children: tuple


Term = Any


@dataclass(frozen=True)
class Inequality:
    lhs: Term
    rhs: Term

    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(set(_vars(self.lhs)) | set(_vars(self.rhs))))

    def __str__(self):
        return f"{term_to_str(self.lhs)} <= {term_to_str(self.rhs)}"


def _vars(t: Term) -> Iterator[str]:
    if isinstance(t, TermVar):
        yield t.name
    elif isinstance(t, TermSeq):
        for x in t.items:
            yield from _vars(x)
    elif isinstance(t, (OmegaPow, InfPow)):
        yield from _vars(t.body)
    elif isinstance(t, TreeTerm):
        yield from _vars(t.head)
        for c in t.children:
            yield from _vars(c)


# -- grammar -------------------------------------------------------------------
#
#   term   := factor+                 (juxtaposition = composition)
#   factor := ident | '(' term ')' | factor '^w'
#   ineq   := term '<=' term
#   identity sugar: term '=' term expands to the two inequalities


def _tokenize(text: str) -> list[str]:
    toks, i = [], 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif text.startswith("<=", i):
            toks.append("<=")
            i += 2
        elif text.startswith("^w", i):
            toks.append("^w")
            i += 2
        elif c in "()=":
            toks.append(c)
            i += 1
        elif c.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(text[i:j])
            i = j
        else:
            raise ValueError(f"bad character {c!r} in term at position {i}")
    return toks


def _parse_seq(toks: list[str]) -> Term:
    factors = []
    while toks and toks[0] not in (")", "<=", "="):
        factors.append(_parse_factor(toks))
    if not factors:
        raise ValueError("empty term")
    return factors[0] if len(factors) == 1 else TermSeq(tuple(factors))


def _parse_factor(toks: list[str]) -> Term:
    t = toks.pop(0)
    if t == "(":
        inner = _parse_seq(toks)
        if not toks or toks.pop(0) != ")":
            raise ValueError("unbalanced parenthesis")
        node = inner
    elif t in (")", "<=", "=", "^w"):
        raise ValueError(f"unexpected token {t!r}")
    else:
        node = TermVar(t)
    while toks and toks[0] == "^w":
        toks.pop(0)
        node = OmegaPow(node)
    return node


def _parse_nested(toks: list[str]) -> Term:
    """``_parse_seq``, which recurses once per parenthesis: a term nested
    past the interpreter's recursion limit is a ValueError."""
    try:
        return _parse_seq(toks)
    except RecursionError:
        raise ValueError("term nests too deeply") from None


def parse_term(text: str) -> Term:
    toks = _tokenize(text)
    t = _parse_nested(toks)
    if toks:
        raise ValueError(f"trailing input {toks!r}")
    return t


def parse_inequalities(text: str) -> list[Inequality]:
    """Parse 's <= t' into one inequality or 's = t' into the two halves."""
    toks = _tokenize(text)
    lhs = _parse_nested(toks)
    if not toks or toks[0] not in ("<=", "="):
        raise ValueError("expected '<=' or '='")
    op = toks.pop(0)
    rhs = _parse_nested(toks)
    if toks:
        raise ValueError(f"trailing input {toks!r}")
    if op == "<=":
        return [Inequality(lhs, rhs)]
    return [Inequality(lhs, rhs), Inequality(rhs, lhs)]


def term_to_str(t: Term) -> str:
    if isinstance(t, TermVar):
        return t.name
    if isinstance(t, TermSeq):
        return " ".join(
            f"({term_to_str(x)})" if isinstance(x, TermSeq) else term_to_str(x)
            for x in t.items
        )
    if isinstance(t, OmegaPow):
        body = term_to_str(t.body)
        if isinstance(t.body, (TermSeq, OmegaPow, InfPow)):
            body = f"({body})"
        return f"{body}^w"
    if isinstance(t, InfPow):
        body = term_to_str(t.body)
        if isinstance(t.body, (TermSeq, OmegaPow, InfPow)):
            body = f"({body})"
        return f"{body}^W"
    if isinstance(t, TreeTerm):
        inner = ",".join(term_to_str(c) for c in t.children)
        return f"{term_to_str(t.head)}({inner})"
    raise TypeError(f"not a term: {t!r}")


# -- evaluation -----------------------------------------------------------------


def default_var_sort(alg: FinAlgebra) -> Optional[int]:
    """The sort that variables range over: that of the signature's binary
    op whose argument and result sorts are one sort (word multiplication,
    omega dot, or unary tree composition), None where there is none (trees
    of arity cap 0; no variable then has a value)."""
    for _, args, result in alg.monad.signature:
        if args == (result, result):
            return result
    return None


def idempotent_power(alg: FinAlgebra, v: Elem) -> Elem:
    """The unique idempotent among the powers of v (``_idempotent``)."""
    return alg.carrier._by_index[_idempotent(alg, alg.carrier._index[v])]


def _idempotent(alg: FinAlgebra, v: int) -> int:
    """The unique idempotent among the powers of the element index v.

    Found by walking v, v^2, v^3, ... until the cycle closes and picking the
    idempotent inside it; this matches the factorial-power limit and needs at
    most carrier-size many steps.
    """
    sort_at, steps = _evaluator(alg)
    if sort_at[v] != default_var_sort(alg):
        raise SortMismatch(f"{alg.carrier._by_index[v]!r} does not live at a self-composable sort")
    get, n = steps[(sort_at[v], sort_at[v])][0], len(sort_at)
    powers = [v]
    while (p := get(powers[-1] + v * n)) not in powers:
        powers.append(p)
    for p in powers:
        if get(p + p * n) == p:
            return p
    raise AssertionError("finite cyclic subsemigroup without idempotent")


def eval_term(alg: FinAlgebra, beta: dict, t: Term) -> Elem:
    """Value of an omega-term under a label assignment (``_value``)."""
    index = alg.carrier._index
    return alg.carrier._by_index[_value(alg, {x: index[beta[x]] for x in _vars(t)}, t)]


def _value(alg: FinAlgebra, beta: dict, t: Term) -> int:
    """Value of an omega-term under an assignment of element indices."""
    if isinstance(t, TermVar):
        return beta[t.name]
    if isinstance(t, TermSeq):
        return _fold(alg, [_value(alg, beta, x) for x in t.items])
    if isinstance(t, OmegaPow):
        return _idempotent(alg, _value(alg, beta, t.body))
    if isinstance(t, InfPow):
        unary = [op for op, args, _ in alg.monad.signature if len(args) == 1]
        if not unary:
            raise SortMismatch("the infinite power needs a two-sorted algebra")
        power = _idempotent(alg, _value(alg, beta, t.body))
        return _apply(alg, unary[0], (power,))
    if isinstance(t, TreeTerm):
        return _apply(alg, "comp", tuple([_value(alg, beta, c) for c in (t.head, *t.children)]))
    raise TypeError(f"not a term: {t!r}")


# -- satisfaction ------------------------------------------------------------------


#: The most variables an inequality may have: ``satisfies`` tries every
#: assignment of them.
MAX_VARS = 4


def satisfies(alg: FinAlgebra, ineq: Inequality) -> tuple[bool, Optional[dict]]:
    """Whether every assignment makes lhs <= rhs; on failure also returns the
    first counterexample assignment in enumeration order.  The assignments
    run over element indices, lhs <= rhs is one bit of the carrier's up-set
    rows, and only the counterexample is decoded.  An inequality in more
    than ``MAX_VARS`` variables is a ValueError."""
    names = ineq.variables()
    if len(names) > MAX_VARS:
        raise ValueError(
            f"{len(names)} variables exceed the assignment bound {MAX_VARS}"
        )
    A = alg.carrier
    pool = [A._index[e] for e in A.elements(default_var_sort(alg))]
    sort_at, rows = _evaluator(alg)[0], A._rows
    for combo in itertools.product(pool, repeat=len(names)):
        beta = dict(zip(names, combo))
        lv = _value(alg, beta, ineq.lhs)
        rv = _value(alg, beta, ineq.rhs)
        if sort_at[lv] != sort_at[rv]:
            raise SortMismatch("inequality sides have different sorts")
        if not rows[lv] >> rv & 1:
            return False, {x: A._by_index[i] for x, i in beta.items()}
    return True, None


def satisfies_all(alg: FinAlgebra, ineqs) -> tuple[bool, Optional[tuple[Inequality, dict]]]:
    for ineq in ineqs:
        ok, beta = satisfies(alg, ineq)
        if not ok:
            return False, (ineq, beta)
    return True, None


def mod_filter(algs: list[FinAlgebra], phi) -> list[FinAlgebra]:
    """The algebras in the list satisfying every inequality of phi."""
    return [a for a in algs if satisfies_all(a, phi)[0]]


@functools.lru_cache(maxsize=1)
def _parsed_library() -> dict[str, tuple[Inequality, ...]]:
    lib = {
        "APERIODIC": ["x^w x <= x^w", "x^w <= x^w x"],
        "COMMUTATIVE": ["x y <= y x", "y x <= x y"],
        "IDEMPOTENT": ["x x <= x", "x <= x x"],
    }
    return {
        name: tuple(iq for line in lines for iq in parse_inequalities(line))
        for name, lines in lib.items()
    }


def identity_library() -> dict[str, list[Inequality]]:
    """Named inequality sets for the classical properties, parsed once per
    process; each call returns a fresh dict of fresh lists (the
    inequalities themselves are immutable)."""
    return {name: list(ineqs) for name, ineqs in _parsed_library().items()}
