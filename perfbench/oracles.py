"""Reference answers computed by the benchmark itself.

Nothing here imports emalg: every expected verdict comes from a closed
form, a theorem, Python's own ``re`` module or a direct computation on a
table the benchmark wrote, so an emalg bug cannot hide behind its own
output.
"""

from __future__ import annotations

import itertools
import re


def words(alphabet: str, max_len: int):
    """Every nonempty word over ``alphabet`` of length at most ``max_len``."""
    for n in range(1, max_len + 1):
        for w in itertools.product(alphabet, repeat=n):
            yield "".join(w)


# -- the "(k+1)-th letter from the end" word family --------------------------------


def family_regex(letter: str, k: int) -> str:
    """``(a|b)*<letter>(a|b){k}`` spelt without counted repetition."""
    return "(a|b)*" + letter + "(a|b)" * k


def family_size(k: int) -> int:
    """Its syntactic semigroup keeps the last k+1 letters: 2^(k+2) - 2 elements."""
    return 2 ** (k + 2) - 2


def suffix_semigroup(k: int) -> tuple[list[str], dict]:
    """The syntactic semigroup of the family as a table: nonempty words of
    length at most k+1, multiplied by concatenating and keeping the suffix."""
    elems = list(words("ab", k + 1))
    table = {(u, v): (u + v)[-(k + 1):] for u in elems for v in elems}
    return elems, table


def check_word_table(regex: str, evidence: dict, max_len: int) -> bool:
    """Fold every word up to ``max_len`` through a ``syn`` report's table and
    compare acceptance with ``re.fullmatch``."""
    table = {tuple(k.split()): v for k, v in evidence["table"].items()}
    letters = evidence["letters"]
    accepting = set(evidence["accepting"])
    pattern = re.compile(regex)
    for w in words("".join(sorted(letters)), max_len):
        acc = letters[w[0]]
        for c in w[1:]:
            acc = table[(acc, letters[c])]
        if (acc in accepting) != bool(pattern.fullmatch(w)):
            return False
    return True


def parse_word_context(text: str) -> tuple[str, str]:
    """``[a,b,_,a]`` -> (``ab``, ``a``)."""
    parts = text.strip("[]").split(",")
    hole = parts.index("_")
    return "".join(parts[:hole]), "".join(parts[hole + 1:])


def check_decomposition(regex: str, evidence: dict, max_len: int) -> bool:
    """The clauses of a ``decompose`` report for target K must describe the
    language again: w is in it iff some clause has every context (u, v)
    with u w v in the language."""
    pattern = re.compile(regex)
    clauses = [
        [parse_word_context(c) for c in clause["contexts"]]
        for clause in evidence["clauses"]
    ]
    for w in words("ab", max_len):
        described = any(
            all(pattern.fullmatch(u + w + v) for u, v in ctxs) for ctxs in clauses
        )
        if described != bool(pattern.fullmatch(w)):
            return False
    return True


# -- direct table computations on word semigroups ---------------------------------


def idempotent_power(table: dict, x):
    p = x
    for _ in range(len({a for a, _ in table}) + 1):
        if table[(p, p)] == p:
            return p
        p = table[(p, x)]
    raise ValueError("no idempotent power; the table is not a semigroup")


def is_aperiodic(elems, table: dict) -> bool:
    return all(
        table[(e, x)] == e for x in elems for e in [idempotent_power(table, x)]
    )


def is_commutative(elems, table: dict) -> bool:
    return all(table[(x, y)] == table[(y, x)] for x in elems for y in elems)


def is_idempotent(elems, table: dict) -> bool:
    return all(table[(x, x)] == x for x in elems)


IDENTITIES = {
    "APERIODIC": is_aperiodic,
    "COMMUTATIVE": is_commutative,
    "IDEMPOTENT": is_idempotent,
}


def is_semilattice(elems, table: dict) -> bool:
    """Membership in the pseudovariety generated by U1: a finite semigroup
    lies in it iff it is commutative and idempotent."""
    return is_commutative(elems, table) and is_idempotent(elems, table)


def congruence_classes(blocks: list[set], steps) -> int:
    """The number of classes of the coarsest partition refining ``blocks``
    that every one-step map preserves (Moore refinement); ``steps(x)`` lists
    the images of x under the one-step maps, in a fixed order."""
    block_of = {x: i for i, b in enumerate(blocks) for x in b}
    while True:
        signature = {
            x: (block_of[x],) + tuple(block_of[y] for y in steps(x))
            for x in block_of
        }
        ids: dict = {}
        refined = {x: ids.setdefault(sig, len(ids)) for x, sig in signature.items()}
        if len(ids) == len(set(block_of.values())):
            return len(ids)
        block_of = refined


def syntactic_size_of_element(elems, table: dict, a) -> int:
    """Size of the syntactic semigroup of {a} in a semigroup generated by
    all of its elements: refine {a} / rest under left and right products."""
    rest = set(elems) - {a}
    blocks = [{a}] + ([rest] if rest else [])
    return congruence_classes(
        blocks,
        lambda x: [table[(s, x)] for s in elems] + [table[(x, s)] for s in elems],
    )


# -- first-order definability: theorem-level answers ------------------------------


def unary_theory_classes(m: int) -> int:
    """Rank-m classes of nonempty one-letter words with order and successor:
    a^n and a^n' agree up to rank m iff n = n' or both reach 2^(m+1) - 3."""
    return 1 if m <= 1 else 2 ** (m + 1) - 3


def letter_set_theory_classes(alphabet: str) -> int:
    """Rank 1 over several letters sees exactly which letters occur."""
    return 2 ** len(alphabet) - 1


# -- count families for the omega and tree recognizers -----------------------------


def residue_period(accepting: set, p: int) -> int:
    """Smallest t > 0 with accepting + t = accepting modulo p."""
    return next(t for t in range(1, p + 1) if {(r + t) % p for r in accepting} == accepting)


def tree_family_size(accepting: set, p: int, max_arity: int) -> int:
    """Syntactic algebra of "count of d labels mod p lies in accepting": in
    each of the max_arity+1 sorts, residues r and r' are equivalent iff r' - r
    is a period of the set, so a sort has as many classes as the smallest
    period."""
    return (max_arity + 1) * residue_period(accepting, p)


def tree_d_count(text: str) -> int:
    return sum(1 for tok in re.findall(r"[A-Za-z]\w*", text) if tok == "d")


INF = "inf"


def omega_count(prefix: str, period: str, cap: int):
    """Capped number of a in prefix . period^w; INF once the period has one."""
    if "a" in period:
        return INF
    return min(prefix.count("a"), cap)


def omega_family_size(accepting: set, cap: int) -> int:
    """Classes of the syntactic congruence of the capped-count Wilke algebra,
    by refinement over its one-step maps (computed on counts, not by emalg)."""
    fin = [("f", i) for i in range(cap + 1)]
    inf = [("i", i) for i in range(cap + 1)] + [("i", INF)]

    def add(x, y):
        return INF if INF in (x, y) else min(x + y, cap)

    def steps(x):
        kind, v = x
        if kind == "f":
            out = [("f", add(v, t)) for t in range(cap + 1)]
            out += [("i", add(v, e[1])) for e in inf]
            out.append(("i", 0 if v == 0 else INF))
            return out
        return [("i", add(t, v)) for t in range(cap + 1)]

    acc = {("i", v) for v in accepting}
    blocks = [set(fin), acc, set(inf) - acc]
    return congruence_classes([b for b in blocks if b], steps)
