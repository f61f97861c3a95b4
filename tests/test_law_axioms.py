"""``check_algebra_laws`` against a brute force of the associative law.

The brute force evaluates every depth-two free element up to a fixed size
both ways, flattened and inner-first; where the two values differ the
tables are not associative, and the axiom check must say so.  Every
witness the check reports must break the equation its axiom states."""

import itertools
import random

from emalg.algebra import (
    VAR,
    FinAlgebra,
    MissingTableEntry,
    check_algebra_laws,
    eval_element,
    eval_upword,
)
from emalg.core import SortedOrderedSet
from emalg.lawsuite import exists_a, finitely_many_a, small_semigroups
from emalg.monads import (
    OMEGA_UP,
    SORT_FIN,
    SORT_INF,
    WORD,
    MixedWord,
    Node,
    Tree,
    UPWord,
    Var,
    Word,
    tree_monad,
)
from tests.test_algebra import bool_tree_algebra


def _words(labels, lengths):
    return [Word(w) for k in lengths for w in itertools.product(labels, repeat=k)]


def _trees(labels: dict, budget: int, cap: int) -> list:
    """Every (tree, weight) over ``labels`` (label -> (arity, weight)) of
    total weight at most ``budget`` and sort at most ``cap``, with its
    variables in order."""

    def grow(off, budget):
        for a, (k, w) in labels.items():
            if w <= budget:
                for children, used, nv in kids(k, off, budget - w):
                    yield Node(a, children), w + used, nv

    def kids(k, off, budget):
        if k == 0:
            yield (), 0, 0
            return
        for rest, used, nv in kids(k - 1, off + 1, budget):
            yield (Var(off),) + rest, used, 1 + nv
        for c, cw, cv in grow(off, budget):
            for rest, used, nv in kids(k - 1, off + cv, budget - cw):
                yield (c,) + rest, cw + used, cv + nv

    return [(Tree(n, nv), w) for n, w, nv in grow(0, budget) if nv <= cap]


def _depth_two(alg):
    """Every free element over free elements over the carrier, up to the
    fixed sizes below."""
    A = alg.carrier
    if alg.kind == "word":
        return _words(_words(list(A), (1, 2)), (1, 2, 3))
    if alg.kind == "omega":
        heads = [()] + [(a,) for a in A.elements(SORT_FIN)]
        fin = _words(A.elements(SORT_FIN), (1, 2))
        inf = [UPWord(u, v.labels) for u in heads for v in fin]
        inf += [MixedWord(u, e) for u in heads for e in A.elements(SORT_INF)]
        prefixes = [()] + [(w,) for w in fin]
        return (
            _words(fin, (1, 2))
            + [UPWord(u, v.labels) for u in prefixes for v in _words(fin, (1, 2))]
            + [MixedWord(u, t) for u in prefixes for t in inf]
        )
    cap = alg.monad.max_arity
    inner = _trees({e: (A.sort_of(e), 1) for e in A}, 3, cap)
    return [t for t, _ in _trees({t: (t.sort, w) for t, w in inner}, 3, cap)]


def _assoc_failure(alg):
    """The first depth-two element whose two evaluations differ, or None."""
    ident = {e: e for e in alg.carrier}

    def ev(t, _sort=None):
        return eval_element(alg, ident, t)

    for outer in _depth_two(alg):
        try:
            if ev(alg.monad.flat(outer)) != ev(alg.monad.map(ev, outer)):
                return outer
        except MissingTableEntry:
            continue
    return None


def _violates(alg, axiom, args) -> bool:
    """Whether ``args`` breaks the equation ``axiom`` names."""
    ident = {e: e for e in alg.carrier}
    if axiom == "omega-shift":
        s, t = args
        return eval_upword(alg, (s,), (t, s), ident) != eval_upword(alg, (), (s, t), ident)
    if axiom == "omega-power":
        s, p = args
        powers, q = set(), s
        for _ in range(len(alg.carrier)):
            q = alg.dot[(q, s)]
            powers.add(q)
        return p in powers and alg.omega[p] != alg.omega[s]
    if axiom == "comp-assoc":
        a, slots, cs = args
        rest = iter(cs)
        take = lambda k: tuple(itertools.islice(rest, k))
        filled = tuple(
            next(rest) if b is VAR else alg.comp_value(b, take(alg.carrier.sort_of(b)))
            for b in slots
        )
        return alg.comp_value(alg.comp_value(a, slots), cs) != alg.comp_value(a, filled)
    assert axiom in ("mult-assoc", "dot-assoc", "mix-action"), axiom
    x, y, z = args
    binary, sort_of = alg.monad.binary, alg.carrier.sort_of

    def times(a, b):  # the binary op of a's and b's sorts, in labels
        return alg.tables[binary[(sort_of(a), sort_of(b))][0]][(a, b)]

    return times(times(x, y), z) != times(x, times(y, z))


def _perturbed(alg, rng):
    """``alg`` with one table entry moved to another element of its sort."""
    op = rng.choice([op for op in ("mult", "dot", "mix", "omega", "comp") if getattr(alg, op)])
    table = dict(getattr(alg, op))
    key = rng.choice(sorted(table, key=repr))
    table[key] = rng.choice(alg.carrier.elements(alg.carrier.sort_of(table[key])))
    tables = {o: getattr(alg, o) for o in ("mult", "dot", "mix", "omega", "comp")}
    return FinAlgebra(alg.monad, alg.carrier, **{**tables, op: table})


def _random_tables(monad, carrier, rng):
    tables: dict = {}
    for op, arg_sorts, result in monad.signature:
        for args in itertools.product(*map(carrier.elements, arg_sorts)):
            key = args[0] if op == "omega" else (args[0], args[1:]) if op == "comp" else args
            tables.setdefault(op, {})[key] = rng.choice(carrier.elements(result))
    return FinAlgebra(monad, carrier, **tables)


def _cases(rng):
    words = [a for a in small_semigroups(3) if len(a.carrier) <= 3]
    omegas = [finitely_many_a()[0], exists_a()[0]]
    trees = [bool_tree_algebra(), bool_tree_algebra(with_var_slots=True)]
    word3 = SortedOrderedSet({0: ["p", "q", "r"]})
    omega23 = SortedOrderedSet({SORT_FIN: ["n", "h"], SORT_INF: ["x", "y", "z"]})
    tree2 = SortedOrderedSet({0: ["c", "d"], 1: ["u", "v"], 2: ["b"]})
    for _ in range(12):
        yield rng.choice(words)
        yield _perturbed(rng.choice(words), rng)
        yield _random_tables(WORD, word3, rng)
    for _ in range(12):
        yield rng.choice(omegas)
        yield _perturbed(rng.choice(omegas), rng)
        yield _random_tables(OMEGA_UP, omega23, rng)
    for _ in range(4):
        yield _perturbed(rng.choice(trees), rng)
        yield _random_tables(tree_monad(2), tree2, rng)
    yield from trees


def test_the_axiom_check_flags_every_brute_force_assoc_failure():
    rng = random.Random(0)
    cases = failures = flagged = 0
    for alg in _cases(rng):
        cases += 1
        report = check_algebra_laws(alg)
        witnesses = [w for law, w in report.violations if law == "assoc"]
        for axiom, args in witnesses:
            assert _violates(alg, axiom, args), (alg, axiom, args)
        if _assoc_failure(alg) is not None:
            failures += 1
            assert witnesses, alg
        flagged += bool(witnesses)
    # the cases hold both defective and lawful tables
    assert 0 < failures <= flagged < cases
