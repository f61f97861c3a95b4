import itertools
import random

import pytest

from emalg import algebra
from emalg.algebra import (
    VAR,
    FinAlgebra,
    MissingTableEntry,
    NotCongruence,
    Recognizer,
    check_algebra_laws,
    eval_element,
    eval_upword,
    is_congruence_ordering,
    is_morphism,
    morphism,
    one_element_algebra,
    product,
    quotient_algebra,
    restrict_sorts,
    subalgebra_generated,
    wilke_algebra,
    word_algebra,
)
from emalg.algio import ParseError, parse_algebra
from emalg.core import Preorder, SortedOrderedSet, kernel
from emalg.lawsuite import finitely_many_a
from emalg.monads import (
    OMEGA_UP,
    SORT_FIN,
    SORT_INF,
    SORT_WORD,
    WORD,
    Word,
    parse_element,
    parse_tree,
    tree_monad,
)
from tests._reference import is_order_extending


def zmod(n):
    carrier = SortedOrderedSet({SORT_WORD: list(range(n))})
    return word_algebra(
        carrier, {(a, b): (a + b) % n for a in range(n) for b in range(n)}
    )


def bool_tree_algebra(max_arity=2, with_var_slots=False):
    """Tracks whether the special constant appeared anywhere in the tree."""
    monad = tree_monad(max_arity)
    elems = {n: [(n, False), (n, True)] for n in monad.sorts}
    carrier = SortedOrderedSet(elems)
    comp = {}
    for n in monad.sorts:
        for head in elems[n]:
            pool = [e for s in monad.sorts for e in elems[s]]
            if with_var_slots:
                pool = pool + [None]
            for slots in itertools.product(pool, repeat=n):
                rsort = sum(1 if s is None else s[0] for s in slots)
                if rsort > max_arity or all(s is None for s in slots):
                    continue
                flag = head[1] or any(s is not None and s[1] for s in slots)
                comp[(head, slots)] = (rsort, flag)
    return FinAlgebra(monad, carrier, comp=comp)


def test_eval_unit_and_parity():
    z2 = zmod(2)
    assert eval_element(z2, {"a": 1}, parse_element("[a,a,a]", WORD)) == 1
    assert eval_element(z2, {"a": 1}, parse_element("[a]", WORD)) == 1
    assert eval_element(z2, {"a": 1, "b": 0}, parse_element("[a,b,a]", WORD)) == 0


def test_eval_tree_constant_and_depth():
    alg = bool_tree_algebra()
    beta = {"c": (0, False), "d": (0, True), "b": (2, False), "u": (1, False)}
    assert eval_element(alg, beta, parse_tree("c")) == (0, False)
    assert eval_element(alg, beta, parse_tree("b(c,d)")) == (0, True)
    assert eval_element(alg, beta, parse_tree("b(u(c),c)")) == (0, False)
    assert eval_element(alg, beta, parse_tree("b(x0,x1)")) == (2, False)


def test_eval_tree_rejects_permuted_variables():
    alg = bool_tree_algebra()
    beta = {"b": (2, False)}
    with pytest.raises(Exception):
        eval_element(alg, beta, parse_tree("b(x1,x0)"))


def test_eval_tree_missing_optional_slot_entry():
    alg = bool_tree_algebra()
    beta = {"b": (2, False), "c": (0, False)}
    with pytest.raises(MissingTableEntry):
        eval_element(alg, beta, parse_tree("b(x0,c)"))


def test_eval_upword_wilke():
    alg, beta = finitely_many_a()
    assert eval_upword(alg, ("b",), ("b",), beta) == "fin"
    assert eval_upword(alg, ("a",), ("b",), beta) == "fin"
    assert eval_upword(alg, (), ("a", "b"), beta) == "inf"


def test_check_algebra_laws_clean():
    assert check_algebra_laws(zmod(3)).ok
    assert check_algebra_laws(finitely_many_a()[0]).ok
    assert check_algebra_laws(bool_tree_algebra()).ok
    assert check_algebra_laws(zmod(64)).ok


def test_check_algebra_laws_flags_nonassociative_table():
    carrier = SortedOrderedSet({SORT_WORD: ["x", "y"]})
    mult = {("x", "x"): "y", ("x", "y"): "x", ("y", "x"): "x", ("y", "y"): "x"}
    magma = FinAlgebra(WORD, carrier, mult=mult)
    report = check_algebra_laws(magma)
    assert not report.ok
    assert any(law == "assoc" for law, _ in report.violations)


def test_check_algebra_laws_flags_incoherent_omega():
    # parity dot with a parity-dependent omega: the loop content of an
    # ultimately periodic word is only defined up to squaring, so
    # omega(s^2) != omega(s) is incoherent
    carrier = SortedOrderedSet({SORT_FIN: [0, 1], SORT_INF: ["fin", "inf"]})
    dot = {(a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)}
    mix = {(a, e): e for a in (0, 1) for e in ("fin", "inf")}
    omega = {0: "fin", 1: "inf"}
    with pytest.raises(ValueError):
        wilke_algebra(carrier, dot, mix, omega)
    raw = FinAlgebra(OMEGA_UP, carrier, dot=dot, mix=mix, omega=omega)
    report = check_algebra_laws(raw)
    assert not report.ok
    assert any(law == "assoc" for law, _ in report.violations)


def test_check_algebra_laws_flags_a_mix_that_is_not_an_action():
    # mix(h, .) swaps x and y, so mix(h.h, x) = y but mix(h, mix(h, x)) = x;
    # only a mixed word whose infinite part is itself mixed shows it
    carrier = SortedOrderedSet({SORT_FIN: ["n", "h"], SORT_INF: ["x", "y", "z"]})
    dot = {(a, b): "h" if "h" in (a, b) else "n" for a in "nh" for b in "nh"}
    swap = {"x": "y", "y": "x", "z": "z"}
    mix = {(a, e): swap[e] if a == "h" else e for a in "nh" for e in "xyz"}
    omega = {"n": "z", "h": "z"}
    with pytest.raises(ValueError) as info:
        wilke_algebra(carrier, dot, mix, omega)
    assert str(info.value) == "Wilke coherence violated: ('mix-action', ('h', 'h', 'x'))"
    report = check_algebra_laws(FinAlgebra(OMEGA_UP, carrier, dot=dot, mix=mix, omega=omega))
    assert ("assoc", ("mix-action", ("h", "h", "x"))) in report.violations


def test_check_algebra_laws_flags_incoherent_var_slot():
    alg = bool_tree_algebra(with_var_slots=True)
    assert check_algebra_laws(alg).ok
    comp = dict(alg.comp)
    # deliberately break one bare-variable entry: filling the slot later
    # no longer matches filling it now
    key = ((2, False), (VAR, (0, False)))
    assert comp[key] == (1, False)
    comp[key] = (1, True)
    bad = FinAlgebra(alg.monad, alg.carrier, comp=comp)
    report = check_algebra_laws(bad)
    assert any(law == "assoc" for law, _ in report.violations)


def test_check_algebra_laws_flags_a_stored_unit_entry_that_is_not_the_head():
    # a(x0) = a is the unit law; evaluation takes it as given, so a stored
    # entry a(x0) = b with b != a is a unit violation
    alg = bool_tree_algebra()
    comp = dict(alg.comp)
    comp[((1, False), (VAR,))] = (1, True)
    report = check_algebra_laws(FinAlgebra(alg.monad, alg.carrier, comp=comp))
    assert report.violations == [("unit", ("comp-unit", ((1, False), (VAR,))))]


def test_is_morphism_examples():
    z2 = zmod(2)
    assert is_morphism({0: 0, 1: 1}, z2, z2)
    one = one_element_algebra(WORD)
    u = next(iter(one.carrier))
    assert is_morphism({0: u, 1: u}, z2, one)
    assert not is_morphism({0: 1, 1: 0}, z2, z2)


def test_morphism_factory_rejects():
    z2 = zmod(2)
    with pytest.raises(ValueError):
        morphism(z2, z2, {0: 1, 1: 0})


def test_product_and_projections():
    z2 = zmod(2)
    p = product([z2, z2])
    assert len(p.carrier) == 4
    assert p.mult[((1, 0), (1, 1))] == (0, 1)
    for i in range(2):  # each projection
        assert is_morphism({x: x[i] for x in p.carrier}, p, z2)
    only = product([z2])
    assert len(only.carrier) == 2


def test_pairing_of_morphisms_is_morphism():
    z4 = zmod(4)
    z2 = zmod(2)
    halve = {0: 0, 1: 1, 2: 0, 3: 1}
    ident = {x: x for x in z4.carrier}
    p = product([z2, z4])
    pairing = {x: (halve[x], ident[x]) for x in z4.carrier}
    assert is_morphism(pairing, z4, p)


def test_empty_product_is_terminal():
    one = product([], monad=WORD)
    assert len(one.carrier) == 1
    one_tree = product([], monad=tree_monad(2))
    assert all(len(one_tree.carrier.elements(s)) == 1 for s in (0, 1, 2))
    assert check_algebra_laws(one_tree).ok


def test_subalgebra_generated():
    z3 = zmod(3)
    sub = subalgebra_generated(z3, {1})
    assert set(sub.algebra.carrier) == {0, 1, 2}
    assert sub.witnesses[0] == Word((1, 1, 1))
    full = subalgebra_generated(z3, {0, 1, 2})
    assert set(full.algebra.carrier) == {0, 1, 2}


def test_subalgebra_omega_closes_under_omega():
    alg, beta = finitely_many_a()
    sub = subalgebra_generated(alg, {"n"})
    assert "fin" in sub.algebra.carrier  # omega image of n
    assert set(sub.algebra.carrier) == {"n", "fin"}


def test_is_congruence_ordering_examples():
    z3 = zmod(3)
    eq = Preorder(z3.carrier, [])
    assert is_congruence_ordering(z3, eq)
    total = Preorder(z3.carrier, [(a, b) for a in range(3) for b in range(3)])
    assert is_congruence_ordering(z3, total)
    partial = Preorder(z3.carrier, [(0, 1), (1, 0)])
    assert not is_congruence_ordering(z3, partial)


def test_a_congruence_ordering_contains_the_algebras_own_order():
    """A preorder extends its own carrier's order, which may be smaller
    than the algebra's; over other elements it is rejected as
    ``quotient_set`` rejects it."""
    from emalg.core import quotient_set

    chain = SortedOrderedSet.chain([0, 1])
    alg = word_algebra(chain, {(a, b): max(a, b) for a in (0, 1) for b in (0, 1)})
    discrete = Preorder(SortedOrderedSet({0: [0, 1]}), [])
    assert is_order_extending(discrete)
    assert not is_congruence_ordering(alg, discrete)
    with pytest.raises(NotCongruence):
        quotient_algebra(alg, discrete)
    with pytest.raises(ValueError, match="does not contain the carrier order"):
        quotient_set(chain, discrete)
    other = Preorder(SortedOrderedSet({0: ["x", "y"]}), [])
    for check in (is_congruence_ordering, quotient_algebra):
        with pytest.raises(ValueError, match="over a different carrier"):
            check(alg, other)
    assert is_congruence_ordering(alg, Preorder(chain, [(0, 1)]))


def test_quotient_algebra():
    z2 = zmod(2)
    eq = Preorder(z2.carrier, [])
    quot, qm = quotient_algebra(z2, eq)
    assert len(quot.carrier) == 2
    total = Preorder(z2.carrier, [(0, 1), (1, 0)])
    quot, qm = quotient_algebra(z2, total)
    assert len(quot.carrier) == 1
    assert qm.is_surjective()
    assert is_morphism(qm.fn, z2, quot)
    assert kernel(qm.fn) == total
    z3 = zmod(3)
    with pytest.raises(NotCongruence):
        quotient_algebra(z3, Preorder(z3.carrier, [(0, 1), (1, 0)]))


def test_congruence_kernel_correspondence():
    # the kernel of every surjective morphism is a congruence ordering, and
    # quotienting by it recovers the image size
    z4 = zmod(4)
    z2 = zmod(2)
    phi = morphism(z4, z2, {0: 0, 1: 1, 2: 0, 3: 1})
    q = kernel(phi.fn)
    assert is_congruence_ordering(z4, q)
    quot, _ = quotient_algebra(z4, q)
    assert len(quot.carrier) == len(z2.carrier)


def test_restrict_sorts():
    alg, _ = finitely_many_a()
    bare = restrict_sorts(alg, {SORT_FIN})
    assert bare.elements(SORT_INF) == ()
    assert bare.dot and not bare.mix and not bare.omega
    tree = bool_tree_algebra(2)
    no_binary = restrict_sorts(tree, {0, 1})
    assert no_binary.elements(2) == ()
    assert all(len(slots) <= 1 for (_, slots) in no_binary.comp)
    same = restrict_sorts(tree, {0, 1, 2})
    assert set(same.carrier) == set(tree.carrier)


def test_restrict_sorts_lowers_the_tree_arity_cap():
    # comp of a sort-2 head with slots of sorts 1 and 2 lands in sort 3,
    # which the restriction drops: under the cap 2 that shape is gone
    tree = bool_tree_algebra(3)
    assert tree.comp[((2, False), ((1, False), (2, False)))] == (3, False)
    mid = restrict_sorts(tree, {1, 2})
    assert mid.monad.max_arity == 2
    assert set(mid.carrier) == {(n, f) for n in (1, 2) for f in (False, True)}
    assert mid.comp[((1, False), ((2, True),))] == (2, True)
    assert check_algebra_laws(mid).ok
    assert restrict_sorts(tree, {0, 3}).monad is tree.monad


def test_restrict_sorts_on_every_subset_of_four_sorts(monkeypatch):
    """Of the 15 nonempty subsets of {0, 1, 2, 3}, 14 restrict a tree
    algebra of cap 3 to the elements of the kept sorts.  {0, 1, 3} is
    rejected by name before anything is built: a head of sort 3 with slots
    of sorts 0, 1 and 1 composes into the dropped sort 2."""
    tree = bool_tree_algebra(3)
    kept = []
    for k in range(1, 5):
        for ds in itertools.combinations(range(4), k):
            if ds == (0, 1, 3):
                continue
            sub = restrict_sorts(tree, set(ds))
            assert set(sub.carrier) == {e for e in tree.carrier if e[0] in ds}
            assert sub.monad.max_arity == max(ds)
            assert check_algebra_laws(sub).ok
            kept.append(ds)
    assert len(kept) == 14

    def built(*args):
        raise AssertionError("the restriction was built")

    monkeypatch.setattr(algebra, "_restrict", built)
    with pytest.raises(ValueError, match="compose into the dropped sort 2"):
        restrict_sorts(tree, {0, 1, 3})


def test_eval_is_morphism_on_random_nestings():
    """On every word of up to 2 words of up to 3 letters each."""
    z3 = zmod(3)
    level1 = list(WORD.free_elements({SORT_WORD: [0, 1, 2]}, 3))
    ident = {e: e for e in z3.carrier}
    for big in WORD.free_elements({SORT_WORD: level1}, 2):
        lhs = eval_element(z3, ident, WORD.flat(big))
        rhs = eval_element(
            z3, ident, WORD.map(lambda w, s: eval_element(z3, ident, w), big)
        )
        assert lhs == rhs


def test_eval_unique_against_right_fold():
    # two extensions agreeing on singletons agree everywhere: compare the
    # left fold with an independent right fold
    z3 = zmod(3)
    rng = random.Random(9)
    for _ in range(200):
        labels = tuple(rng.choices([0, 1, 2], k=rng.randint(1, 6)))

        def right_fold(ls):
            if len(ls) == 1:
                return ls[0]
            return z3.mult[(ls[0], right_fold(ls[1:]))]

        assert eval_element(z3, {e: e for e in z3.carrier}, Word(labels)) == right_fold(
            list(labels)
        )


def test_relation_lift_agrees_with_quotient_comparison():
    """The lifted relation (a pair element with related labels projecting to
    the two sides) and the classwise comparison after quotienting agree on
    ultimately periodic shapes, where normalisation makes the two subtly
    different computations."""
    import itertools as it

    from emalg.core import Preorder, quotient_set
    from emalg.monads import OMEGA_UP, UPWord

    alg, _ = finitely_many_a()
    A = alg.carrier
    q = Preorder(A, [("n", "h"), ("h", "n"), ("fin", "inf"), ("inf", "fin")])
    _, qfn = quotient_set(A, q)
    cls = qfn.mapping
    fins = list(A.elements(SORT_FIN))

    def ups(pool, pmax):
        for plen in range(0, pmax + 1):
            for vlen in range(1, pmax + 1):
                for pre in it.product(pool, repeat=plen):
                    for per in it.product(pool, repeat=vlen):
                        yield UPWord(pre, per)

    elems = list(ups(fins, 2))
    # quotient comparison: relabel through the class map, then compare
    quot_rel = set()
    for s in elems:
        for t in elems:
            ms = OMEGA_UP.map(lambda a, _: cls[a], s)
            mt = OMEGA_UP.map(lambda a, _: cls[a], t)
            if ms == mt:  # trivial order on classes
                quot_rel.add((s, t))
    # lifted relation: a pair-labelled element whose projections are s and t
    pairs = [(a, b) for a in fins for b in fins if q.holds(a, b)]
    lift_rel = set()
    for u in ups(pairs, 2):
        s = OMEGA_UP.map(lambda p, _: p[0], u)
        t = OMEGA_UP.map(lambda p, _: p[1], u)
        lift_rel.add((s, t))
    lift_rel = {(s, t) for s, t in lift_rel if s in set(elems) and t in set(elems)}
    assert lift_rel == quot_rel


WILKE_FILE = """
kind omega
elems 1 n h
elems inf fin inf
dot n n n
dot n h h
dot h n h
dot h h h
mix n fin fin
mix n inf inf
mix h fin fin
mix h inf inf
omega n fin
omega h inf
"""

#: The file of ``bool_tree_algebra(2, with_var_slots=True)``: c, d, m, n, b
#: and p name (0, F), (0, T), (1, F), (1, T), (2, F) and (2, T).
TREE_FILE = """
kind tree
elems 0 c d
elems 1 m n
elems 2 b p
comp m c c
comp m d d
comp m m m
comp m n n
comp m b b
comp m p p
comp n c d
comp n d d
comp n m n
comp n n n
comp n b p
comp n p p
comp b c c c
comp b c d d
comp b c m m
comp b c n n
comp b c b b
comp b c p p
comp b d c d
comp b d d d
comp b d m n
comp b d n n
comp b d b p
comp b d p p
comp b m c m
comp b m d n
comp b m m b
comp b m n p
comp b n c n
comp b n d n
comp b n m p
comp b n n p
comp b b c b
comp b b d p
comp b p c p
comp b p d p
comp p c c d
comp p c d d
comp p c m n
comp p c n n
comp p c b p
comp p c p p
comp p d c d
comp p d d d
comp p d m n
comp p d n n
comp p d b p
comp p d p p
comp p m c n
comp p m d n
comp p m m p
comp p m n p
comp p n c n
comp p n d n
comp p n m p
comp p n n p
comp p b c p
comp p b d p
comp p p c p
comp p p d p
comp b c _ m
comp b d _ n
comp b m _ b
comp b n _ p
comp p c _ n
comp p d _ n
comp p m _ p
comp p n _ p
comp b _ c m
comp b _ d n
comp b _ m b
comp b _ n p
comp p _ c n
comp p _ d n
comp p _ m p
comp p _ n p
"""

#: A tree file that parses although its tables are not associative: the
#: parser checks no axiom of tree files.
BROKEN_TREE_FILE = """
kind tree
elems 0 c d
elems 1 m
elems 2 b
comp m c c
comp m d d
comp m m m
comp m b b
comp b c c c
comp b c d d
comp b d c d
comp b d d d
comp b c m m
comp b d m m
comp b m c m
comp b m d m
comp b m m b
comp b c b b
comp b d b b
comp b b c b
comp b b d b
comp b _ c m
comp b c _ m
comp b _ d m
comp b d _ m
"""


def test_parse_algebra_files():
    word = parse_algebra("kind word\nelems 0 e a\ndot e e e\ndot e a a\ndot a e a\ndot a a e\n")
    assert word.kind == "word" and len(word.carrier) == 2
    wilke = parse_algebra(WILKE_FILE)
    assert wilke.kind == "omega"
    assert eval_upword(wilke, ("h",), ("n",), {"n": "n", "h": "h"}) == "fin"
    tree = parse_algebra(TREE_FILE)
    assert tree.kind == "tree"
    beta = {"b": "b", "c": "c", "d": "d", "m": "m"}
    assert eval_element(tree, beta, parse_tree("b(c,d)")) == "d"
    assert eval_element(tree, beta, parse_tree("b(x0,c)")) == "m"
    assert eval_element(tree, beta, parse_tree("b(m(c),d)")) == "d"


def test_the_tree_file_is_the_flag_algebra_and_the_broken_one_breaks_assoc():
    tree = parse_algebra(TREE_FILE)
    assert check_algebra_laws(tree).ok
    flags = bool_tree_algebra(2, with_var_slots=True)
    names = dict(zip(flags.carrier, tree.carrier))
    name = lambda e: None if e is None else names[e]  # noqa: E731
    assert list(tree.carrier) == ["c", "d", "m", "n", "b", "p"]
    assert tree.comp == {
        (name(h), tuple(map(name, slots))): name(v) for (h, slots), v in flags.comp.items()
    }
    report = check_algebra_laws(parse_algebra(BROKEN_TREE_FILE))
    assert report.violations[0] == ("assoc", ("comp-assoc", ("b", ("d", "m"), ("c",))))


def test_parse_algebra_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_algebra("kind word\nelems 0 a\ndot a b a\n")
    assert exc.value.line_no == 3
    with pytest.raises(ParseError):
        parse_algebra("elems 0 a\n")  # kind must come first
    with pytest.raises(ParseError):
        parse_algebra("kind word\nelems 0 a b\ndot a a a\n")  # not total


def test_recognizer_validation():
    z2 = zmod(2)
    alphabet = SortedOrderedSet({SORT_WORD: ["a"]})
    rec = Recognizer(alphabet, z2, {"a": 1}, frozenset({0}))
    assert rec.accepts(parse_element("[a,a]", WORD))
    assert not rec.accepts(parse_element("[a]", WORD))
    ordered = SortedOrderedSet.chain(["a", "b"])
    with pytest.raises(ValueError):
        Recognizer(ordered, z2, {"a": 1, "b": 0}, frozenset({0}))
    chain = word_algebra(
        SortedOrderedSet.chain([0, 1]),
        {(a, b): max(a, b) for a in (0, 1) for b in (0, 1)},
    )
    with pytest.raises(ValueError):
        Recognizer(alphabet, chain, {"a": 1}, frozenset({0}))  # not upward closed


def test_a_recognizer_names_an_assigned_value_outside_the_carrier():
    alphabet = SortedOrderedSet({SORT_WORD: ["a"]})
    with pytest.raises(ValueError, match="assigned 5, which is not in the carrier"):
        Recognizer(alphabet, zmod(2), {"a": 5}, frozenset({1}))


def test_a_recognizer_names_an_accepting_element_outside_the_carrier():
    alphabet = SortedOrderedSet({SORT_WORD: ["a"]})
    with pytest.raises(ValueError, match="accepting element 7 is not in the carrier"):
        Recognizer(alphabet, zmod(2), {"a": 1}, frozenset({7}))


def test_check_algebra_laws_flags_nonassociative_tree_composition():
    # comp(x; y) = y if x == p else p: comp(comp(q; q); q) = q but
    # comp(q; comp(q; q)) = p
    carrier = SortedOrderedSet({0: [], 1: ["p", "q"]})
    comp = {(x, (y,)): y if x == "p" else "p" for x in "pq" for y in "pq"}
    report = check_algebra_laws(FinAlgebra(tree_monad(1), carrier, comp=comp))
    assert any(law == "assoc" for law, _ in report.violations)
    assert check_algebra_laws(bool_tree_algebra()).ok
    assert check_algebra_laws(bool_tree_algebra(with_var_slots=True)).ok
