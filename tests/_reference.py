"""Reference implementations, written over element labels, that the
package's integer-coded versions are tested against.

``incompatibility`` is the label-keyed compatibility walk and
``quotient_set`` the class search by pairwise equivalence, as the package
had them before it numbered the elements of each algebra; the results must
agree exactly, first witnesses, class names and orders included.
``tuple_carrier`` is the product carrier from componentwise label pairs,
as ``tuple_algebra`` built it before it built carriers from rows.
``is_order_extending`` and ``is_total_per_sort`` are the label tests of a
preorder that ``Preorder`` had as methods.

``generated_tuples`` is the product closure computed round by round to the
end, and ``divides`` the division search that closes every candidate
assignment before it tests the graph, as the package had them before the
search stopped a candidate at its first conflict; verdicts, seed pairs and
graphs must agree.  ``grow_tuples`` is the lazy product closure over
labels, seeds first, with one set per (frontier tuple, argument position),
as the package had it before the closure and the division search ran on
element indices; the closures must be equal, bare slots and ``places``
included.

``general_type`` is the rank-m type that interns one atom per pebble
sequence, the last round included, and ``recognizes_at_rank`` the rank test
that builds the whole product closure before it looks for a class on both
sides of the language, as the package had them before the last round was
read in one ``zip`` and the rank sweep stopped at its first conflict; the
types must induce the same partition of words, and the rank tests must give
the same verdicts and raise the same bound failures.

``theory_algebra`` is the rank-m class discovery that types every pair it
concatenates, as the package had it before each pair became one step of the
right Cayley graph; representatives, letter classes and tables must agree,
and so must the bound failures.

``separation_layers`` is the pair search over every element step that
``decompose_as_derivatives`` ran before it searched over letter steps; it
keeps the element-step preorder and the saturation-order contexts under
test.

``closure`` is the witness closure that sweeps the label entries
(``entries``) with a witness dict keyed by elements, as ``_closure`` did
before it swept the integer tables; keys, their order and the witnesses
must agree.

``transition_semigroup`` is the two-sided closure of the letter maps, with
a list test for new elements and one composition per product, that
``dfa_to_recognizer`` ran before it filled its table by Froidure and Pin's
rule; the carrier order and the table, entry order included, must agree.

``dfa_to_recognizer`` is the same two-sided search with each composition
built as a tuple over the states, element by element, that the package
ran before it composed maps with ``operator.itemgetter``; carriers,
tables (entry order included), assignments and accepting sets must agree.

``parse_algebra`` is the algebra-file reader that checks each line's names
through a helper, over lines cut and split in two steps (``lines``), and
``encode`` the entry-by-entry coding of label tables that ``FinAlgebra``
ran, as the package had them before each read its table lines or coded
its places in one pass; ``finite_algebra`` is ``FinAlgebra`` over
``encode``.  Carriers, integer tables (places and entry order included),
exception types and messages must agree.

``hopcroft`` is the partition-refinement DFA minimisation that
``parse_regex`` ran before Moore's refinement replaced it; the minimal
automata must be equal.

``thompson_dfa`` is the front end that ``parse_regex`` ran before one parse
took a pattern to its positions: a syntax tree (``_parse_regex_ast``),
Thompson's epsilon-NFA over it (``_Builder``, ``_Frag``, ``_thompson``), its
letters (``_collect_literals``) and a subset construction that takes an
epsilon-closure per state and letter (``_subset_construction``).
Minimised, its automata must equal ``parse_regex``'s, ``matches_epsilon``
included, and its syntax errors must have the same positions and texts.

``bounded_quotient_compatibility`` is the law battery's bounded
congruence definition as it enumerated every word up to the length bound,
before the class-vector groups grew one letter at a time; here its
``quotient_set`` is the label-keyed one above.  ``all_preorders`` builds a
``Preorder`` for every subset of the same-sort pairs, as the battery did
before it closed the subsets as bitmasks; verdicts and the sequence of
preorders must agree.

``context_apply`` evaluates a context at an element through
``eval_element``, the definition the context laws are tested against; the
package itself applies contexts only as one-step tables.

``semigroup_tables`` tests every table on range(n) for associativity, as
``lawsuite.small_semigroups`` did before it filled the cells by
backtracking; the lists of tables must be equal, order included.

``eval_element``, ``eval_term``, ``idempotent_power`` and ``satisfies`` are
the evaluator over the label tables (``read``), as the package had it
before evaluation read the integer tables; values, verdicts, first
counterexamples and the texts of ``MissingTableEntry`` and
``SortMismatch`` must agree.  ``entries`` lists the label entries that the
label-keyed references here sweep."""

import heapq
import itertools

from emalg.algebra import (
    _TERM,
    VAR,
    FinAlgebra,
    MissingTableEntry,
    Recognizer,
    _associative,
    _axiom_violations,
    _places,
    _word_algebra_of_cayley,
    eval_element,
    subalgebra_generated,
)
from emalg.algio import _TABLE_ARGS, _TABLES, MAX_TREE_ARITY, ParseError, _parse_sort
from emalg.automata import _META, Dfa, RegexSyntaxError, _renumber
from emalg.core import CarrierBoundExceeded, Preorder, SortedFunction, SortedOrderedSet, _check_sort_size
from emalg.logic import (
    MAX_THEORY_CLASSES,
    TheoryBoundExceeded,
    _normalised_letters,
    cached_theory_algebra,
    ef_type,
)
from emalg.monads import HOLE, OmegaMonad, SortMismatch, Tree, TreeMonad, UPWord, Var, WordMonad, _tree_vars
from emalg.profinite import (
    InfPow,
    OmegaPow,
    TermSeq,
    TermVar,
    TreeTerm,
    default_var_sort,
)
from emalg.syntactic import _StepArrays, _one_step_functions, _pair_depths, _witnessed_steps


def entries(alg):
    """Every table entry as (op, args, value), in labels, table by table."""
    for op, table in alg.tables.items():
        for args, value in table.items():
            yield op, args, value


def read(alg, op):
    """``op``'s label entry at a flat argument tuple, None where there is
    none; an all-bare comp pattern is the unit law, whose value is its head."""
    get = alg.tables[op].get
    return lambda args: args[0] if op == "comp" and args.count(VAR) == len(args) - 1 else get(args)


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
    for op, args, value in entries(alg):
        get = read(alg, op)
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
            value2 = get(args2)
            if value2 is not None and value2 not in related:
                return op, args, args2
    return None


def quotient_set(A, q):
    """Classes of the preorder q, each named by its first representative in
    carrier order, ordered by [a] <= [b] iff a q b."""
    if not A.same_elements(q.carrier):
        raise ValueError("preorder is over a different carrier")
    if not is_order_extending(q):
        raise ValueError("preorder does not contain the carrier order")
    rep: dict = {}
    class_elems: dict = {}
    for s in A.sorts:
        class_elems[s] = []
        for x in A.elements(s):
            for r in class_elems[s]:
                if q.holds(x, r) and q.holds(r, x):
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


def tuple_carrier(algs, tuples):
    """The carrier of the subalgebra of the product of ``algs`` on
    ``tuples``: the tuples by the sort of their first component, and every
    pair of same-sort tuples ordered in each component, as label pairs."""
    ts = list(dict.fromkeys(tuple(t) for t in tuples))
    A0 = algs[0].carrier
    elems: dict = {}
    for t in ts:
        elems.setdefault(A0.sort_of(t[0]), []).append(t)
    pairs = [
        (x, y)
        for es in elems.values()
        for x, y in itertools.product(es, es)
        if all(a.carrier.leq(xi, yi) for a, xi, yi in zip(algs, x, y))
    ]
    size = max((len(es) for es in elems.values()), default=1)
    sorts = sorted(set(s for a in algs for s in a.carrier.sorts) | set(elems))
    return SortedOrderedSet({s: elems.get(s, []) for s in sorts}, pairs, max_size=max(64, size))


def is_order_extending(q):
    """Whether the preorder q contains its carrier's order, pair by pair."""
    return all(q.holds(a, b) for a, b in q.carrier.leq_pairs())


def is_total_per_sort(q):
    """Whether the preorder q relates every two elements of one sort."""
    es = q.carrier.elements
    return all(q.holds(a, b) for s in q.carrier.sorts for a in es(s) for b in es(s))


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


def generated_tuples(algs, seeds):
    """The closure of the seed tuples under the ops of the first component,
    a frontier round at a time; a bare slot holds VAR in every component,
    and a tuple arises only where every component has the entry."""
    tuples = set()
    for t in seeds:
        if len(t) != len(algs):
            raise ValueError("seed arity does not match the component count")
        tuples.add(tuple(t))
    first = algs[0]
    shapes = {(op, 2, ()) for op in ("mult", "dot", "mix") if getattr(first, op)}
    if first.omega:
        shapes.add(("omega", 1, ()))
    for _, slots in first.comp:
        bare = tuple(i + 1 for i, x in enumerate(slots) if x is VAR)
        if len(bare) < len(slots):  # an all-bare pattern is the unit law
            shapes.add(("comp", 1 + len(slots), bare))
    known: list = []
    frontier = list(tuples)
    while frontier:
        known += frontier
        columns = list(zip(*known))
        found = set()
        for op, n, bare in shapes:
            reads = [read(a, op) for a in algs]
            for x in frontier:
                for j in set(range(n)) - set(bare):
                    per_component = []
                    for get, a, column in zip(reads, x, columns):
                        pools = [(VAR,) if i in bare else column for i in range(n)]
                        pools[j] = (a,)
                        per_component.append(map(get, itertools.product(*pools)))
                    found.update(zip(*per_component))
        frontier = [t for t in found if None not in t and t not in tuples]
        tuples.update(frontier)
    return tuples


def grow_tuples(algs, seeds, places=None):
    """The lazy product closure over labels, each tuple yielded once as it
    is found, the seeds first: frontier-only rounds that apply every op of
    ``places`` (as ``algebra._places`` lists them; by default those of the
    first component's entries) to the argument tuples holding a frontier
    tuple in one position and known tuples in the others, with one set per
    (frontier tuple, argument position)."""
    seeds = list(map(tuple, seeds))
    if set(map(len, seeds)) - {len(algs)}:
        raise ValueError("seed arity does not match the component count")
    tuples: set = set()
    frontier = []
    for t in seeds:
        if t not in tuples:
            tuples.add(t)
            frontier.append(t)
            yield t
    if places is None:
        places = _places(algs[0])
    bare_column = (VAR,)
    known: list = []
    while frontier:
        known += frontier
        columns = list(zip(*known))
        found = []
        for op, n, bare in places:
            reads = [read(a, op) for a in algs]
            for x in frontier:
                for j in range(n):
                    if j in bare:
                        continue
                    per_component = []
                    for get, a, column in zip(reads, x, columns):
                        pools = [column] * n
                        for i in bare:
                            pools[i] = bare_column
                        pools[j] = (a,)
                        per_component.append(map(get, itertools.product(*pools)))
                    for t in set(zip(*per_component)) - tuples:
                        if None not in t:
                            tuples.add(t)
                            found.append(t)
                            yield t
        frontier = found


def divides(A, B, max_steps=200_000):
    """(verdict, seed pairs, graph) of the division search, or the message
    of the exceeded budget: the first generating set of A by size, then
    every assignment of it to same-sorted elements of B in
    ``itertools.product`` order, each closed to the end with
    ``generated_tuples`` and tested for monotonicity over all pairs."""
    elems = sorted(A.carrier, key=repr)
    combos = (c for k in range(1, len(elems) + 1) for c in itertools.combinations(elems, k))
    gens = next(
        (c for c in combos if set(subalgebra_generated(A, c).algebra.carrier) == set(elems)), ()
    )
    pools = [B.carrier.elements(A.carrier.sort_of(g)) for g in gens]
    n_candidates = 1
    for p in pools:
        n_candidates *= max(1, len(p))
    budget = n_candidates * max(1, len(A.carrier) * len(B.carrier))
    if budget > max_steps:
        return (
            f"{n_candidates} assignments over carriers of sizes "
            f"{len(B.carrier)}x{len(A.carrier)} exceed the budget {max_steps}"
        )
    for bs in itertools.product(*pools):
        seeds = list(zip(bs, gens))
        pairs = generated_tuples([B, A], seeds)
        if all(
            A.carrier.leq(a1, a2)
            for b1, a1 in pairs
            for b2, a2 in pairs
            if B.carrier.leq(b1, b2)
        ):
            return True, seeds, frozenset(pairs)
    return False, None, None


_types: dict = {}


def _intern_type(x) -> int:
    got = _types.get(x)
    if got is None:
        got = len(_types)
        _types[x] = got
    return got


def general_type(word, m):
    """Rank-m type id of a tuple of letters, interned in a table of its own:
    the atomic diagram of every pebble sequence, each node with the set of
    its children's types."""
    n = len(word)
    # code[q][p]: how a pebble on q relates to an earlier pebble on p
    # (equal, successor, predecessor, later, earlier)
    code = [
        [0 if q == p else 1 if q == p + 1 else 2 if q == p - 1 else 3 if q > p else 4
         for p in range(n)]
        for q in range(n)
    ]

    def t(pebbles, letters, rels, r):
        a = _intern_type(("atom", letters, rels))
        if r == 0:
            return a
        succ = frozenset([
            t(
                pebbles + (q,),
                letters + (word[q],),
                rels + tuple(map(code[q].__getitem__, pebbles)),
                r - 1,
            )
            for q in range(n)
        ])
        return _intern_type(("node", a, succ))

    return t((), (), (), m)


def recognizes_at_rank(syn, m):
    """Whether the rank-m theory map recognises the language of the
    syntactic result ``syn``, tested on the whole closure of the letter
    pairs (see ``generated_tuples``)."""
    theta = cached_theory_algebra(syn.letter_map, m)
    seeds = [(theta.letter_class[c], syn.letter_map[c]) for c in theta.alphabet]
    member = {}
    for t, s in generated_tuples([theta.algebra, syn.syn_algebra], seeds):
        inside = s in syn.accepting
        if member.setdefault(t, inside) != inside:
            return False
    return True


def theory_algebra(alphabet, m):
    """(representatives, letter classes, table) of the rank-m classes, found
    by concatenating class pairs in (cost, i, j) order and typing each
    concatenation with ``ef_type``; a bound failure raises
    ``TheoryBoundExceeded`` with the package's message."""
    letters = _normalised_letters(alphabet)
    cap = 2 ** (m + 2)
    fp_class = {}
    reps = []

    def register(wd):
        fp = ef_type(wd, m)
        if fp in fp_class:
            return fp_class[fp], False
        if len(wd) > cap:
            raise TheoryBoundExceeded(
                f"representative of length {len(wd)} exceeds the cap {cap}"
            )
        if len(reps) >= MAX_THEORY_CLASSES:
            raise TheoryBoundExceeded(f"more than {MAX_THEORY_CLASSES} classes at rank {m}")
        fp_class[fp] = len(reps)
        reps.append(wd)
        return len(reps) - 1, True

    letter_class = {c: register((c,))[0] for c in letters}
    table = {}
    heap = []
    waiting = []

    def offer(i, j):
        if j < len(reps):
            heapq.heappush(heap, (len(reps[i]) + len(reps[j]), i, j))
        else:
            waiting.append(i)

    for i in range(len(reps)):
        offer(i, 0)
    while heap:
        _, i, j = heapq.heappop(heap)
        cid, new = register(reps[i] + reps[j])
        table[(i, j)] = cid
        if new:
            for k in waiting:
                heapq.heappush(heap, (len(reps[k]) + len(reps[cid]), k, cid))
            waiting.clear()
            offer(cid, 0)
        offer(i, j + 1)
    return dict(enumerate(reps)), letter_class, table


def step_arrays(alg, steps):
    """Witnessed steps as ``_pair_depths`` takes them, a ``_StepArrays``:
    for each, the indices of its arguments and of their values, every step
    kept."""
    index = alg.carrier._index
    return _StepArrays(
        [([index[e] for e in f.table], [index[v] for v in f.table.values()]) for f in steps],
        len(alg.carrier),
    )


class PairDepths(list):
    """The depth array of ``_pair_depths`` over ``alg``'s numbering, which
    also holds each pair of elements (a, b) that it separates."""

    def __init__(self, alg, depths):
        super().__init__(depths)
        self.index, self.n = alg.carrier._index, len(alg.carrier)

    def __contains__(self, pair) -> bool:
        a, b = pair
        return self[self.index[a] * self.n + self.index[b]] >= 0


def separation_layers(alg, P, sort):
    """The witnessed one-step functions of the algebra over its numbering
    (``_witnessed_steps``), and the depth of every same-sort pair (a, b)
    that some context separates, the length of the shortest separating
    context (``_pair_depths`` over every element step), as ``PairDepths``."""
    depths = _pair_depths(alg, P, sort, step_arrays(alg, _one_step_functions(alg)))
    return _witnessed_steps(alg), PairDepths(alg, depths)


def closure(alg, start):
    """Close ``start`` (element -> witness free element) under the label
    entries, sweeping them in label order until a sweep adds nothing: an
    entry whose arguments all have witnesses gives its value, if that has
    none yet, ``flat`` of the op's shallow term over them; a bare slot
    stays a bare variable of sort 1."""
    wit = dict(start)
    monad, sort_of = alg.monad, alg.carrier.sort_of
    changed = True
    while changed:
        changed = False
        for op, args, r in entries(alg):
            if r in wit or any(x is not VAR and x not in wit for x in args):
                continue
            labels = tuple([VAR if x is VAR else wit[x] for x in args])
            sorts = tuple([1 if x is VAR else sort_of(x) for x in args])
            wit[r] = monad.flat(_TERM[op](labels, sorts))
            changed = True
    return wit


def transition_semigroup(dfa):
    """The elements of the transition semigroup of ``dfa`` in discovery
    order, and its product table {(s, t): s.t}, built row by row."""

    def compose(s, t):
        return tuple(t[q] for q in s)

    letter_maps = [tuple(dfa.trans[(q, c)] for q in range(dfa.n_states)) for c in dfa.alphabet]
    elems = list(dict.fromkeys(letter_maps))
    frontier = list(elems)
    while frontier:
        new = []
        for t in frontier:
            for g in letter_maps:
                for c in (compose(t, g), compose(g, t)):
                    if c not in elems:
                        elems.append(c)
                        new.append(c)
        frontier = new
    return elems, {(s, t): compose(s, t) for s in elems for t in elems}


def dfa_to_recognizer(dfa):
    """The transition semigroup of ``dfa``, found two-sided and breadth
    first with one tuple per composition, its table filled from the right
    Cayley graph and the discovery record."""
    letter_maps = {
        c: tuple(dfa.trans[(q, c)] for q in range(dfa.n_states))
        for c in dfa.alphabet
    }

    def compose(s: tuple, t: tuple) -> tuple:
        return tuple(map(t.__getitem__, s))

    gens = list(dict.fromkeys(letter_maps.values()))
    elems = list(gens)
    index = {t: i for i, t in enumerate(elems)}
    found = [None] * len(gens)  # (t, g, True) for elems[t].g, False for g.elems[t]
    right = []  # right[t][g]: the index of elems[t].gens[g]
    while len(right) < len(elems):
        t = len(right)
        row = []
        for g, y in enumerate(gens):
            for c_, on_right in ((compose(elems[t], y), True), (compose(y, elems[t]), False)):
                i = index.get(c_)
                if i is None:
                    i = index[c_] = len(elems)
                    elems.append(c_)
                    found.append((t, g, on_right))
                if on_right:
                    row.append(i)
        right.append(row)
    alg = _word_algebra_of_cayley(SortedOrderedSet({0: elems}), right, found)
    alphabet = SortedOrderedSet({0: list(dfa.alphabet)})
    accepting = frozenset(t for t in elems if t[dfa.start] in dfa.accepting)
    return Recognizer(alphabet, alg, dict(letter_maps), accepting)


def encode(carrier, tables):
    """The integer tables of the label ``tables`` (op -> flat argument
    tuple -> value) over ``carrier``'s numbering, entry by entry; an
    argument or value outside the carrier raises ValueError."""
    index, n = carrier._index, len(carrier)
    coded: dict = {}
    for op, table in tables.items():
        for args, value in table.items():
            bare = tuple([i for i, a in enumerate(args) if i and a is VAR]) if op == "comp" else ()
            code, w = 0, 1
            for i, a in enumerate(args):
                if i not in bare:
                    if a not in index:
                        raise ValueError(f"{op} entry at {args!r} fits no operation")
                    code += index[a] * w
                w *= n
            if value not in index:
                raise ValueError(f"{op} value {value!r} at {args!r} is not an element")
            coded.setdefault((op, len(args), bare), {})[code] = index[value]
    return coded


def finite_algebra(monad, carrier, *, mult=None, dot=None, mix=None, omega=None, comp=None):
    """``FinAlgebra(monad, carrier, ...)`` with its tables coded by ``encode``."""
    tables = {"mult": dict(mult or {}), "dot": dict(dot or {}), "mix": dict(mix or {})}
    tables["omega"] = {(a,): v for a, v in (omega or {}).items()}
    tables["comp"] = {(a, *slots): v for (a, slots), v in (comp or {}).items()}
    alg = FinAlgebra.__new__(FinAlgebra)
    alg._init(monad, carrier, encode(carrier, tables))
    return alg


def lines(text):
    """Each nonblank line's number and tokens, its comment cut first."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def parse_algebra(text):
    """An algebra file read line by line, each name checked on its own."""
    kind = None
    elems: dict = {}
    leq_pairs: list = []
    tables: dict = {op: {} for op in _TABLE_ARGS}
    sort_of: dict = {}

    def need(name, args, line_no):
        for a in args:
            if a not in sort_of:
                raise ParseError(line_no, f"{name} mentions unknown element {a!r}")

    for line_no, toks in lines(text):
        head, args = toks[0], toks[1:]
        if head == "kind":
            if kind is not None:
                raise ParseError(line_no, "duplicate kind line")
            if len(args) != 1 or args[0] not in ("word", "omega", "tree"):
                raise ParseError(line_no, "kind must be word, omega or tree")
            kind = args[0]
        elif kind is None:
            raise ParseError(line_no, "kind line must come first")
        elif head == "elems":
            if not args:
                raise ParseError(line_no, "elems needs a sort")
            s = _parse_sort(args[0], kind, line_no)
            if kind == "tree" and s > MAX_TREE_ARITY:
                raise CarrierBoundExceeded(f"tree sort {s} exceeds the arity cap {MAX_TREE_ARITY}")
            for e in args[1:]:
                if e in sort_of:
                    raise ParseError(line_no, f"element {e!r} declared twice")
                sort_of[e] = s
            elems.setdefault(s, []).extend(args[1:])
            _check_sort_size(s, len(elems[s]))
        elif head == "leq":
            if len(args) != 3:
                raise ParseError(line_no, "leq takes: sort a b")
            s = _parse_sort(args[0], kind, line_no)
            need("leq", args[1:], line_no)
            for a in args[1:]:
                if sort_of[a] != s:
                    raise ParseError(line_no, f"leq element {a!r} is not of sort {args[0]}")
            leq_pairs.append((args[1], args[2]))
        elif head in _TABLE_ARGS:
            if head not in _TABLES[kind]:
                raise ParseError(line_no, f"{kind} algebras have no {head} table")
            n, usage = _TABLE_ARGS[head]
            if (len(args) != n) if n else (len(args) < 2):
                raise ParseError(line_no, usage)
            if head == "comp":
                need(head, [a for a in args if a != "_"], line_no)
                key = (args[0], tuple(VAR if a == "_" else a for a in args[1:-1]))
            else:
                need(head, args, line_no)
                key = args[0] if head == "omega" else (args[0], args[1])
            tables[head][key] = args[-1]
        else:
            raise ParseError(line_no, f"unknown directive {head!r}")

    if kind is None:
        raise ParseError(0, "missing kind line")
    try:
        carrier = SortedOrderedSet(elems, leq_pairs)
        if kind == "word":
            alg = finite_algebra(WordMonad(), carrier, mult=tables["dot"])
            if not _associative(alg):
                raise ValueError(f"associativity violated: {next(_axiom_violations(alg))}")
            return alg
        if kind == "omega":
            alg = finite_algebra(OmegaMonad(), carrier, dot=tables["dot"], mix=tables["mix"], omega=tables["omega"])
            bad = next(_axiom_violations(alg), None)
            if bad:
                raise ValueError(f"Wilke coherence violated: {bad}")
            return alg
        return finite_algebra(TreeMonad(max(elems, default=0)), carrier, comp=tables["comp"])
    except ValueError as exc:
        raise ParseError(0, str(exc)) from exc


def hopcroft(dfa):
    """The minimal automaton, by Hopcroft's refinement over preimages."""
    states = range(dfa.n_states)
    acc = set(dfa.accepting)
    rej = set(states) - acc
    partition = [s for s in (acc, rej) if s]
    work = [s for s in (acc, rej) if s]
    preimage: dict[tuple, set] = {}
    for (q, c), r in dfa.trans.items():
        preimage.setdefault((r, c), set()).add(q)
    while work:
        A = work.pop()
        for c in dfa.alphabet:
            X = set()
            for r in A:
                X |= preimage.get((r, c), set())
            new_partition = []
            for Y in partition:
                inter, diff = Y & X, Y - X
                if inter and diff:
                    new_partition.extend([inter, diff])
                    if Y in work:
                        work.remove(Y)
                        work.extend([inter, diff])
                    else:
                        work.append(min(inter, diff, key=len))
                else:
                    new_partition.append(Y)
            partition = new_partition
    block_of = {}
    for i, block in enumerate(partition):
        for q in block:
            block_of[q] = i
    return _renumber(
        Dfa(
            dfa.alphabet,
            len(partition),
            block_of[dfa.start],
            frozenset(block_of[q] for q in dfa.accepting),
            {
                (block_of[q], c): block_of[r]
                for (q, c), r in dfa.trans.items()
            },
            matches_epsilon=dfa.matches_epsilon,
        )
    )


class _Frag:
    """NFA fragment: states are integers allocated by the builder."""

    __slots__ = ("start", "out")

    def __init__(self, start: int, out: int):
        self.start = start
        self.out = out


class _Builder:
    def __init__(self):
        self.eps: dict[int, list[int]] = {}
        self.sym: dict[tuple[int, str], list[int]] = {}
        self.n = 0

    def state(self) -> int:
        self.n += 1
        return self.n - 1

    def add_eps(self, a: int, b: int):
        self.eps.setdefault(a, []).append(b)

    def add_sym(self, a: int, c: str, b: int):
        self.sym.setdefault((a, c), []).append(b)


def _parse_regex_ast(text: str):
    pos = [0]

    def peek():
        return text[pos[0]] if pos[0] < len(text) else None

    def eat(c):
        if peek() != c:
            raise RegexSyntaxError(pos[0], f"expected {c!r}")
        pos[0] += 1

    def alt():
        parts = [concat()]
        while peek() == "|":
            eat("|")
            parts.append(concat())
        return ("alt", parts) if len(parts) > 1 else parts[0]

    def concat():
        parts = []
        while peek() is not None and peek() not in ")|":
            parts.append(repeat())
        if not parts:
            return ("eps",)
        return ("cat", parts) if len(parts) > 1 else parts[0]

    def repeat():
        node = atom()
        while peek() in ("*", "+", "?"):
            op = peek()
            eat(op)
            node = ({"*": "star", "+": "plus", "?": "opt"}[op], node)
        return node

    def atom():
        c = peek()
        if c is None:
            raise RegexSyntaxError(pos[0], "unexpected end of pattern")
        if c == "(":
            eat("(")
            node = alt()
            eat(")")
            return node
        if c in _META:
            raise RegexSyntaxError(pos[0], f"unexpected {c!r}")
        eat(c)
        return ("lit", c)

    node = alt()
    if pos[0] != len(text):
        raise RegexSyntaxError(pos[0], "unbalanced ')'")
    return node


def _thompson(node, b: _Builder) -> _Frag:
    kind = node[0]
    if kind == "lit":
        s, t = b.state(), b.state()
        b.add_sym(s, node[1], t)
        return _Frag(s, t)
    if kind == "eps":
        s = b.state()
        return _Frag(s, s)
    if kind == "cat":
        frags = [_thompson(x, b) for x in node[1]]
        for f1, f2 in zip(frags, frags[1:]):
            b.add_eps(f1.out, f2.start)
        return _Frag(frags[0].start, frags[-1].out)
    if kind == "alt":
        s, t = b.state(), b.state()
        for x in node[1]:
            f = _thompson(x, b)
            b.add_eps(s, f.start)
            b.add_eps(f.out, t)
        return _Frag(s, t)
    if kind in ("star", "opt", "plus"):
        f = _thompson(node[1], b)
        s, t = b.state(), b.state()
        b.add_eps(s, f.start)
        b.add_eps(f.out, t)
        if kind != "plus":
            b.add_eps(s, t)
        if kind != "opt":
            b.add_eps(f.out, f.start)
        return _Frag(s, t)
    raise AssertionError(kind)


def _collect_literals(node, acc: set):
    if node[0] == "lit":
        acc.add(node[1])
    elif node[0] in ("cat", "alt"):
        for x in node[1]:
            _collect_literals(x, acc)
    elif node[0] in ("star", "plus", "opt"):
        _collect_literals(node[1], acc)


def _subset_construction(b: _Builder, frag: _Frag, alphabet: tuple) -> Dfa:
    def closure(states: frozenset) -> frozenset:
        stack, seen = list(states), set(states)
        while stack:
            q = stack.pop()
            for r in b.eps.get(q, ()):
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        return frozenset(seen)

    start = closure(frozenset([frag.start]))
    index = {start: 0}
    order = [start]
    trans = {}
    i = 0
    while i < len(order):
        S = order[i]
        for c in alphabet:
            nxt = closure(
                frozenset(r for q in S for r in b.sym.get((q, c), ()))
            )
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            trans[(i, c)] = index[nxt]
        i += 1
    accepting = frozenset(i for S, i in index.items() if frag.out in S)
    eps = frag.out in start
    return Dfa(alphabet, len(order), 0, accepting, trans, matches_epsilon=eps)


def thompson_dfa(text, alphabet=None):
    """The DFA that ``parse_regex`` minimised before it compiled patterns
    through their positions: Thompson's construction over the syntax tree,
    then the subset construction with an epsilon-closure per step, with the
    same alphabet checks and errors."""
    letters: set = set()
    b = _Builder()
    try:
        ast = _parse_regex_ast(text)
        _collect_literals(ast, letters)
        frag = _thompson(ast, b)
    except RecursionError:
        raise RegexSyntaxError(0, "pattern nests too deeply") from None
    if alphabet is None:
        alphabet = tuple(sorted(letters))
    else:
        alphabet = tuple(alphabet)
        if len(set(alphabet)) < len(alphabet):
            raise RegexSyntaxError(0, "alphabet names a letter twice")
        for pos, c in enumerate(text):
            if c in letters and c not in alphabet:
                raise RegexSyntaxError(pos, f"letter {c!r} is not in the alphabet")
    if not alphabet:
        raise RegexSyntaxError(0, "regex has no letters and no alphabet was given")
    return _subset_construction(b, frag, alphabet)


def bounded_quotient_compatibility(alg, q, max_len=3):
    """The definition itself, on words up to a length bound: whenever the
    classwise images compare, the products must compare."""
    _, qfn = quotient_set(alg.carrier, q)
    cls = qfn.mapping
    Q = qfn.cod
    elems, mult = list(alg.carrier), alg.mult
    by_vec: dict = {}
    for ln in range(1, max_len + 1):
        for w in itertools.product(elems, repeat=ln):
            acc = w[0]
            for x in w[1:]:
                acc = mult[(acc, x)]
            by_vec.setdefault(tuple(cls[x] for x in w), set()).add(acc)
    vecs = list(by_vec)
    for v1 in vecs:
        for v2 in vecs:
            if len(v1) != len(v2):
                continue
            if all(Q.leq(x, y) for x, y in zip(v1, v2)):
                for a in by_vec[v1]:
                    for b in by_vec[v2]:
                        if not q.holds(a, b):
                            return False
    return True


def all_preorders(carrier):
    elems = list(carrier)
    nonrefl = [
        (a, b)
        for a in elems
        for b in elems
        if a != b and carrier.sort_of(a) == carrier.sort_of(b)
    ]
    seen = set()
    for mask in range(2 ** len(nonrefl)):
        chosen = [p for i, p in enumerate(nonrefl) if mask >> i & 1]
        q = Preorder(carrier, chosen)
        if q.pairs() not in seen:
            seen.add(q.pairs())
            yield q


def context_apply(alg, ctx, a):
    """Evaluate the context, a free element over the carrier, with the hole
    replaced by ``a`` and each other label standing for itself."""
    return eval_element(alg, lambda x: a if x is HOLE else x, ctx)


def semigroup_tables(n):
    """All associative tables on range(n), as element-indexed dicts: every
    table in ``itertools.product`` order over the row-major cells, kept
    when all n^3 triples associate."""
    cells = [(i, j) for i in range(n) for j in range(n)]
    for values in itertools.product(range(n), repeat=len(cells)):
        table = dict(zip(cells, values))
        if all(
            table[(table[(a, b)], c)] == table[(a, table[(b, c)])]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        ):
            yield table


def apply(alg, op, args):
    """``op``'s entry at ``args``; MissingTableEntry where there is none."""
    value = read(alg, op)(args)
    if value is None:
        raise MissingTableEntry(f"no {op} entry at {args!r}")
    return value


def fold(alg, values):
    """``values`` multiplied left to right, each step by the op of the
    signature that takes the sorts of its two arguments."""
    sort_of, binary = alg.carrier.sort_of, alg.monad.binary
    acc, acc_sort = values[0], sort_of(values[0])
    for v in values[1:]:
        sorts = (acc_sort, sort_of(v))
        if sorts not in binary:
            raise SortMismatch(f"no binary operation takes sorts {sorts}")
        op, acc_sort = binary[sorts]
        acc = apply(alg, op, (acc, v))
    return acc


def comp_value(alg, a, slots):
    """Value of the shallow tree a(slot_1, ..., slot_n); VAR slots pass a
    variable through, and the all-variable pattern is the unit law."""
    value = read(alg, "comp")((a, *slots))
    if value is None:
        raise MissingTableEntry(f"no composition entry for head {a!r} with slots {tuple(slots)!r}")
    return value


def eval_element(alg, beta, t):
    """The extension of the label assignment ``beta`` applied to ``t``, over
    the label tables."""
    get = beta.__getitem__ if isinstance(beta, dict) else beta
    sort_of = alg.carrier.sort_of
    alg.monad.element_sort(t)
    values = []
    for a, s in alg.monad.labels(t):
        v = get(a)
        if sort_of(v) != s:
            raise SortMismatch(f"label {a!r} maps to {v!r} of sort {sort_of(v)}, not {s}")
        values.append(v)
    if isinstance(t, Tree):
        order = list(_tree_vars(t.root))
        if order != list(range(t.sort)):
            raise SortMismatch(
                f"tree variables {order} are not x0..x{t.sort - 1} in order; "
                "the value of such a tree is not determined by shallow tables"
            )
        next_value = iter(values).__next__

        def ev(n):
            if n.__class__ is Var:
                return VAR
            v = next_value()
            return comp_value(alg, v, tuple([ev(c) for c in n.children]))

        return ev(t.root)
    if isinstance(t, UPWord):
        n = len(t.prefix)
        values[n:] = [apply(alg, "omega", (fold(alg, values[n:]),))]
    return fold(alg, values)


def idempotent_power(alg, v):
    """The first idempotent among the powers v, v^2, ... of v."""
    sort = alg.carrier.sort_of(v)
    if sort != default_var_sort(alg):
        raise SortMismatch(f"{v!r} does not live at a self-composable sort")
    op = alg.monad.binary[(sort, sort)][0]
    powers, seen, cur = [v], {v}, v
    while True:
        cur = apply(alg, op, (cur, v))
        if cur in seen:
            break
        seen.add(cur)
        powers.append(cur)
    return next(p for p in powers if apply(alg, op, (p, p)) == p)


def eval_term(alg, beta, t):
    """Value of an omega-term under a label assignment."""
    if isinstance(t, TermVar):
        return beta[t.name]
    if isinstance(t, TermSeq):
        return fold(alg, [eval_term(alg, beta, x) for x in t.items])
    if isinstance(t, OmegaPow):
        return idempotent_power(alg, eval_term(alg, beta, t.body))
    if isinstance(t, InfPow):
        unary = [op for op, args, _ in alg.monad.signature if len(args) == 1]
        if not unary:
            raise SortMismatch("the infinite power needs a two-sorted algebra")
        return apply(alg, unary[0], (idempotent_power(alg, eval_term(alg, beta, t.body)),))
    if isinstance(t, TreeTerm):
        head = eval_term(alg, beta, t.head)
        return comp_value(alg, head, tuple(eval_term(alg, beta, c) for c in t.children))
    raise TypeError(f"not a term: {t!r}")


def satisfies(alg, ineq):
    """(verdict, first counterexample) of lhs <= rhs over every assignment
    of the variable sort's labels, in ``itertools.product`` order."""
    names = ineq.variables()
    pool = alg.carrier.elements(default_var_sort(alg))
    for combo in itertools.product(pool, repeat=len(names)) if pool else ():
        beta = dict(zip(names, combo))
        lv, rv = eval_term(alg, beta, ineq.lhs), eval_term(alg, beta, ineq.rhs)
        if alg.carrier.sort_of(lv) != alg.carrier.sort_of(rv):
            raise SortMismatch("inequality sides have different sorts")
        if not alg.carrier.leq(lv, rv):
            return False, beta
    return True, None
