"""Reference implementations, written over element labels, that the
package's integer-coded versions are tested against.

``incompatibility`` is the label-keyed compatibility walk and
``quotient_set`` the class search by pairwise equivalence, as the package
had them before it numbered the elements of each algebra; the results must
agree exactly, first witnesses, class names and orders included."""

import itertools

from emalg.algebra import _READ, VAR, _entries
from emalg.core import SortedFunction, SortedOrderedSet


def incompatibility(alg, rel):
    """A witness (op, args, args2) that the reflexive, transitive relation
    ``rel`` is not compatible with the tables, or None: each entry against
    the entries that raise one of its arguments to an element of that
    argument's up-set (carrier order), and an entry with a bare slot
    against the whole product of up-sets."""
    A = alg.carrier
    up = {}  # x first, then the elements strictly above it
    for s in A.sorts:
        es = A.elements(s)
        for x in es:
            up[x] = [x] + [y for y in es if y != x and (x, y) in rel]
    if all(len(u) == 1 for u in up.values()):
        return None
    up_set = {x: set(u) for x, u in up.items()}
    up.setdefault(VAR, [VAR])
    for op, args, value in _entries(alg):
        read, table = _READ[op], getattr(alg, op)
        if VAR in args:
            above = itertools.product(*(up.get(a, ()) for a in args))
            next(above, None)  # args itself
        else:
            above = [
                args[:i] + (y,) + args[i + 1 :]
                for i, x in enumerate(args)
                for y in up[x][1:]
            ]
        related = up_set[value]
        for args2 in above:
            value2 = read(table, args2)
            if value2 is not None and value2 not in related:
                return op, args, args2
    return None


def quotient_set(A, q):
    """Classes of the preorder q, each named by its first representative in
    carrier order, ordered by [a] <= [b] iff a q b."""
    if not A.same_elements(q.carrier):
        raise ValueError("preorder is over a different carrier")
    if not q.is_order_extending():
        raise ValueError("preorder does not contain the carrier order")
    rep: dict = {}
    class_elems: dict = {}
    for s in A.sorts:
        class_elems[s] = []
        for x in A.elements(s):
            for r in class_elems[s]:
                if q.equivalent(x, r):
                    rep[x] = r
                    break
            else:
                rep[x] = x
                class_elems[s].append(x)
    pairs = [
        (ra, rb)
        for s in A.sorts
        for ra in class_elems[s]
        for rb in class_elems[s]
        if q.holds(ra, rb)
    ]
    Q = SortedOrderedSet(dict(class_elems), pairs)
    return Q, SortedFunction(A, Q, rep)


def transitive_closure(pairs):
    """The pairs (a, c) joined by a path of one or more pairs."""
    succ: dict = {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    changed = True
    while changed:
        changed = False
        for a, outs in succ.items():
            new = set()
            for b in tuple(outs):
                new |= succ.get(b, set())
            if not new <= outs:
                outs |= new
                changed = True
    return {(a, b) for a, outs in succ.items() for b in outs}
