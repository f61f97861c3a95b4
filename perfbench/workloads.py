"""The three workloads: their inputs, made from the seed, and their op lists.

An op is one thing a user asks emalg for: a CLI command run in-process
through ``emalg.cli.main(argv)``, or, for omega and tree recognizers that
the CLI cannot express, one library call.  Each op carries a check against
a reference from ``oracles``; the check runs between ops, outside the timed
region.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

import oracles


@dataclass
class Outcome:
    """What one op returned.  ``rc`` is the CLI exit code (None for a library
    call), ``report`` the parsed JSON report of a CLI op, ``value`` the
    return value of a library call, ``error`` the exception if one escaped,
    ``undecided`` whether a library verdict came back as None."""

    rc: Optional[int] = None
    report: Optional[dict] = None
    value: Any = None
    error: Optional[str] = None
    undecided: bool = False


@dataclass
class Op:
    kind: str  # the op kind, as in ops.<kind>.total_s
    label: str
    invoke: Callable[[], Any]  # the timed call
    finish: Callable[[Any], Outcome]  # turns the raw result into an Outcome, untimed
    expect: Callable[[Outcome], bool]  # the reference check on a verdict
    verdict: Callable[[Outcome], Any]  # a JSON-able summary, compared across runs


# -- running ops -------------------------------------------------------------------


def _last_report(text: str) -> Optional[dict]:
    """The JSON record a CLI command prints (``laws`` prints lines first):
    everything from the line that is just ``{``."""
    lines = text.splitlines()
    if "{" not in lines:
        return None
    try:
        return json.loads("\n".join(lines[lines.index("{"):]))
    except json.JSONDecodeError:
        return None


def cli_op(emalg, kind: str, argv: list, expect) -> Op:
    """A CLI op.  Its label names input files by base name, so that labels
    (and the verdict lists keyed by them) do not depend on the work dir."""
    buf = io.StringIO()

    def invoke():
        buf.seek(0)
        buf.truncate()
        with contextlib.redirect_stdout(buf):
            return emalg.cli.main(argv)

    def finish(rc) -> Outcome:
        return Outcome(rc=rc, report=_last_report(buf.getvalue()))

    return Op(
        kind,
        " ".join(os.path.basename(a) if os.sep in a else a for a in argv),
        invoke,
        finish,
        expect,
        lambda o: [o.rc, (o.report or {}).get("verdict")],
    )


def lib_op(kind: str, label: str, call, expect, verdict, undecided=lambda v: False) -> Op:
    return Op(kind, label, call, lambda v: Outcome(value=v, undecided=undecided(v)), expect, verdict)


def _evidence(o: Outcome) -> dict:
    return (o.report or {}).get("evidence") or {}


# -- laws --------------------------------------------------------------------------


def laws_ops(emalg, seed: int, workdir: str) -> list[Op]:
    """Every law the battery checks is a theorem, so the reference verdict
    is: all pass."""

    def expect(o: Outcome) -> bool:
        ev = _evidence(o)
        return o.rc == 0 and o.report["verdict"]["ok"] and bool(ev) and all(
            r["ok"] for r in ev.values()
        )

    return [cli_op(emalg, "laws", ["laws", "--seed", str(seed)], expect)]


# -- syn-large ---------------------------------------------------------------------

FAMILY_KS = (1, 2, 3, 4, 5)
COVER_KS = (1, 2)
# Distinct accepting sets per modulus or cap.  The moduli are prime, so
# every accepting set has the same syntactic size and about the same cost.
# The counts place the median among the cap-3 omega recognizers and the
# tail (the 11th slowest op) in the middle of the mod-3 tree recognizers,
# each inside one cluster of op costs; see README.md.
TREE_SETS = {2: 2, 3: 6, 5: 1}
OMEGA_SETS = {1: 6, 2: 14, 3: 28}
TREE_ARITY = 2


def write_word_algebra(path: str, elems: list, table: dict) -> None:
    name = {e: f"e{i}" for i, e in enumerate(elems)}
    lines = ["kind word", "elems 0 " + " ".join(name[e] for e in elems)]
    lines += [f"dot {name[a]} {name[b]} {name[c]}" for (a, b), c in table.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _fold_len(k: int) -> int:
    return k + 3


def _syn_expect(regex: str, k: int):
    def expect(o: Outcome) -> bool:
        size = oracles.family_size(k)
        return (
            o.rc == 0
            and o.report["verdict"]["size"] == size
            and len(o.report["evidence"]["elements"]) == size
            and oracles.check_word_table(regex, o.report["evidence"], _fold_len(k))
        )

    return expect


def _decompose_expect(regex: str, k: int):
    def expect(o: Outcome) -> bool:
        return (
            o.rc == 0
            and o.report["verdict"] == {"clauses": 2 ** k, "verified": True}
            and oracles.check_decomposition(regex, o.report["evidence"], _fold_len(k))
        )

    return expect


def _check_expect(elems, table, identity: str):
    want = oracles.IDENTITIES[identity](elems, table)

    def expect(o: Outcome) -> bool:
        return o.rc == (0 if want else 1) and o.report["verdict"] == {"satisfied": want}

    return expect


def _cover_expect(elems, table):
    n = len(elems)
    sizes = {f"e{i}": oracles.syntactic_size_of_element(elems, table, a) for i, a in enumerate(elems)}

    def expect(o: Outcome) -> bool:
        ev = _evidence(o)
        return (
            o.rc == 0
            and o.report["verdict"] == {"components": n}
            and ev["components"] == sizes
            and ev["cover_size"] == n
            and ev["surjection_verified"] is True
        )

    return expect


def proper_subsets(rng: random.Random, values: list, n: int) -> list[set]:
    """``n`` distinct seeded subsets, each neither empty nor everything."""
    every = [c for k in range(1, len(values)) for c in itertools.combinations(values, k)]
    return [set(c) for c in rng.sample(every, n)]


def count_tree_algebra(emalg, p: int):
    """Counts d labels modulo p: the element (n, r) of sort n is "residue r".
    Generalises the test suite's bool_tree_algebra from a flag to a residue."""
    monad = emalg.tree_monad(TREE_ARITY)
    elems = {n: [(n, r) for r in range(p)] for n in monad.sorts}
    pool = [e for s in monad.sorts for e in elems[s]]
    comp = {}
    for n in monad.sorts:
        for head in elems[n]:
            for slots in itertools.product(pool, repeat=n):
                rsort = sum(s[0] for s in slots)
                if n and rsort <= TREE_ARITY:
                    comp[(head, slots)] = (rsort, (head[1] + sum(s[1] for s in slots)) % p)
    return emalg.FinAlgebra(monad, emalg.SortedOrderedSet(elems), comp=comp)


def count_tree_recognizer(emalg, alg, accepting: set):
    """"The number of d labels modulo p is in ``accepting``", over constants
    c and d, a unary u and a binary b."""
    alphabet = emalg.SortedOrderedSet({0: ["c", "d"], 1: ["u"], 2: ["b"]})
    assignment = {"c": (0, 0), "d": (0, 1), "u": (1, 0), "b": (2, 0)}
    return emalg.Recognizer(alphabet, alg, assignment, {(0, r) for r in accepting})


def random_tree_text(rng: random.Random, depth: int) -> str:
    """A closed tree over c, d (constants), u (unary) and b (binary)."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice("cd")
    if rng.random() < 0.5:
        return f"u({random_tree_text(rng, depth - 1)})"
    return f"b({random_tree_text(rng, depth - 1)},{random_tree_text(rng, depth - 1)})"


def count_omega_algebra(emalg, cap: int):
    """Wilke algebra of "the number of a, capped at ``cap``, and infinite once
    the period has an a"; finite values are f<n>, infinite ones i<n>."""
    from emalg.monads import SORT_FIN, SORT_INF

    inf = oracles.INF

    def add(x, y):
        return inf if inf in (x, y) else min(x + y, cap)

    fin_vals = list(range(cap + 1))
    inf_vals = fin_vals + [inf]
    f = {v: f"f{v}" for v in fin_vals}
    i = {v: f"i{v}" for v in inf_vals}
    carrier = emalg.SortedOrderedSet({SORT_FIN: list(f.values()), SORT_INF: list(i.values())})
    dot = {(f[x], f[y]): f[add(x, y)] for x in fin_vals for y in fin_vals}
    mix = {(f[x], i[e]): i[add(x, e)] for x in fin_vals for e in inf_vals}
    omega = {f[x]: i[0 if x == 0 else inf] for x in fin_vals}
    return emalg.wilke_algebra(carrier, dot, mix, omega)


def count_omega_recognizer(emalg, alg, accepting: set):
    """Omega-words over a and b whose capped count of a is in ``accepting``."""
    from emalg.monads import SORT_FIN

    alphabet = emalg.SortedOrderedSet({SORT_FIN: ["a", "b"]})
    return emalg.Recognizer(alphabet, alg, {"a": "f1", "b": "f0"}, {f"i{v}" for v in accepting})


def _tree_expect(emalg, p: int, accepting: set, samples: list[str]):
    size = oracles.tree_family_size(accepting, p, TREE_ARITY)

    def expect(o: Outcome) -> bool:
        syn = o.value
        return syn.size() == size and all(
            syn.accepts(emalg.parse_element(t, syn.recognizer.algebra.monad))
            == (oracles.tree_d_count(t) % p in accepting)
            for t in samples
        )

    return expect


def _omega_expect(cap: int, accepting: set, samples: list[tuple[str, str]]):
    from emalg.monads import UPWord

    size = oracles.omega_family_size(accepting, cap)

    def expect(o: Outcome) -> bool:
        syn = o.value
        return syn.size() == size and all(
            syn.accepts(UPWord(tuple(u), tuple(v)))
            == (oracles.omega_count(u, v, cap) in accepting)
            for u, v in samples
        )

    return expect


def _size_verdict(o: Outcome):
    return o.value.size()


def syn_large_ops(emalg, seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    letter = rng.choice("ab")
    ops = []
    tables = {}
    for k in FAMILY_KS:
        elems, table = oracles.suffix_semigroup(k)
        path = os.path.join(workdir, f"suffix-{k}.alg")
        write_word_algebra(path, elems, table)
        tables[k] = (path, elems, table)
    for k in FAMILY_KS:
        rx = oracles.family_regex(letter, k)
        ops.append(cli_op(emalg, "syn", ["syn", rx], _syn_expect(rx, k)))
        ops.append(cli_op(emalg, "decompose", ["decompose", rx], _decompose_expect(rx, k)))
        path, elems, table = tables[k]
        ops.append(
            cli_op(emalg, "check", ["check", path, "APERIODIC"], _check_expect(elems, table, "APERIODIC"))
        )
    for k in COVER_KS:
        path, elems, table = tables[k]
        ops.append(cli_op(emalg, "cover", ["cover", path], _cover_expect(elems, table)))
    for p, n_sets in TREE_SETS.items():
        alg = count_tree_algebra(emalg, p)
        for accepting in proper_subsets(rng, list(range(p)), n_sets):
            rec = count_tree_recognizer(emalg, alg, accepting)
            samples = [random_tree_text(rng, 4) for _ in range(40)]
            ops.append(
                lib_op(
                    "syntactic_algebra",
                    f"syntactic_algebra tree count-d mod {p} in {sorted(accepting)}",
                    lambda rec=rec: emalg.syntactic_algebra(rec),
                    _tree_expect(emalg, p, accepting, samples),
                    _size_verdict,
                )
            )
    for cap, n_sets in OMEGA_SETS.items():
        alg = count_omega_algebra(emalg, cap)
        # fixed accepting sets: these ops hold the median, and their cost
        # depends on the set; the seed still draws the sample words
        for accepting in proper_subsets(random.Random(cap), list(range(cap + 1)) + [oracles.INF], n_sets):
            rec = count_omega_recognizer(emalg, alg, accepting)
            samples = [
                ("".join(rng.choices("ab", k=rng.randint(0, 5))), "".join(rng.choices("ab", k=rng.randint(1, 3))))
                for _ in range(40)
            ]
            ops.append(
                lib_op(
                    "syntactic_algebra",
                    f"syntactic_algebra omega count-a cap {cap} in {sorted(accepting, key=str)}",
                    lambda rec=rec: emalg.syntactic_algebra(rec),
                    _omega_expect(cap, accepting, samples),
                    _size_verdict,
                )
            )
    # one fixed interleaving, the same for every seed: the small ops that
    # hold the median are spread over the whole pass instead of running in
    # one burst at its end, so no single moment of the machine sets it
    random.Random(0).shuffle(ops)
    return ops


# -- decide-small ------------------------------------------------------------------

THEORY_RANKS = {"a": range(0, 6), "ab": range(0, 3)}


def unary_languages() -> list[tuple[str, bool]]:
    """Forty distinct one-letter languages.  Twenty are first-order
    definable: thresholds a^k a*, singletons a^k, pairs and a threshold with
    a gap.  Twenty are a^k (a^p)* with p in 2..6, which are not.  These sit
    around the median, so they are the same for every seed."""
    definable = (
        ["a" * k + "(a)*" for k in range(1, 6)]
        + ["a" * k for k in range(1, 6)]
        + ["a" * k + "a?" for k in range(1, 5)]
        + ["a|aaa", "a|aaaa", "aa|aaaa", "aaa|aaaaa", "a|aaa(a)*", "aa|aaaa(a)*"]
    )
    periodic = ["a" * k + "(" + "a" * p + ")*" for k in range(1, 5) for p in range(2, 7)]
    return [(rx, True) for rx in definable] + [(rx, False) for rx in periodic]


def binary_languages(rng: random.Random) -> list[tuple[str, bool]]:
    """Twenty distinct two-letter languages whose FO-definability is a
    textbook fact, with fixed counts per family; the seed draws the words
    and residues.  The definable ones all need rank at least 2, so the rank
    side is blocked at this alphabet size for every one of them alike."""
    words = ["".join(w) for n in (2, 3) for w in itertools.product("ab", repeat=n)]
    definable = (
        [f"(a|b)*{w}(a|b)*" for w in rng.sample(words, 3)]  # contains w
        + [f"(a|b)*{w}" for w in rng.sample(words, 3)]  # ends with w
        + ["(ab)+", "(ba)+", "b*a*", "a*b*"]
    )
    # length r mod p, for every residue with p = 2, 3
    length = ["(a|b)" * r + "(" + "(a|b)" * p + ")" + ("*" if r else "+") for p in (2, 3) for r in range(p)]
    # count of x is r mod p, for x = a, b and p = 2, 3
    count = [
        f"{y}*" + f"{x}{y}*" * r + "(" + f"{x}{y}*" * p + ")*"
        for x, y in ("ab", "ba")
        for p in (2, 3)
        for r in range(p)
    ]
    not_definable = length + rng.sample(count, 5)
    return [(rx, True) for rx in definable] + [(rx, False) for rx in not_definable]


def _decide_expect(definable: bool):
    def expect(o: Outcome) -> bool:
        return (
            o.rc == (0 if definable else 1)
            and o.report["verdict"] == {"definable": definable}
            and o.report["evidence"]["aperiodic"] is definable
        )

    return expect


def _theory_expect(alphabet: str, m: int):
    def expect(o: Outcome) -> bool:
        if o.rc != 0:
            return False
        ev = o.report["evidence"]
        reps = ev["representatives"]
        n = len(reps)
        if alphabet == "a":
            want = oracles.unary_theory_classes(m)
            length = {c: len(r) for c, r in reps.items()}
            table_ok = all(
                length[z] == min(length[x] + length[y], want)
                for xy, z in ev["table"].items()
                for x, y in [xy.split()]
            )
            return n == want and sorted(length.values()) == list(range(1, want + 1)) and table_ok
        if m == 0:
            return n == 1
        if m == 1:
            seen = {c: frozenset(r) for c, r in reps.items()}
            table_ok = all(seen[z] == seen[x] | seen[y] for xy, z in ev["table"].items() for x, y in [xy.split()])
            return n == oracles.letter_set_theory_classes(alphabet) and table_ok
        return n > oracles.letter_set_theory_classes(alphabet)

    return expect


def semigroup_files(emalg, workdir: str) -> list[tuple]:
    """The law battery's small-semigroup corpus, written as algebra files:
    (path, algebra, elements, table) for each member."""
    from emalg.lawsuite import small_semigroups

    out = []
    for j, alg in enumerate(small_semigroups()):
        elems = list(alg.carrier)
        path = os.path.join(workdir, f"semigroup-{j}.alg")
        write_word_algebra(path, elems, alg.mult)
        out.append((path, alg, elems, dict(alg.mult)))
    return out


def _membership_expect(elems, table):
    want = oracles.is_semilattice(elems, table)

    def expect(o: Outcome) -> bool:
        verdict, witness = o.value
        return verdict is None or (verdict is want and (witness is not None) is want)

    return expect


def decide_small_ops(emalg, seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    ops = [
        cli_op(emalg, "decide", ["decide", "fo", rx], _decide_expect(definable))
        for rx, definable in unary_languages() + binary_languages(rng)
    ]
    for alphabet, ranks in THEORY_RANKS.items():
        for m in ranks:
            ops.append(cli_op(emalg, "theory", ["theory", str(m), alphabet], _theory_expect(alphabet, m)))
    u1 = emalg.word_algebra(
        emalg.SortedOrderedSet({0: [0, 1]}), {(x, y): min(x, y) for x in (0, 1) for y in (0, 1)}
    )
    identities = sorted(oracles.IDENTITIES)
    for j, (path, alg, elems, table) in enumerate(semigroup_files(emalg, workdir)):
        identity = identities[j % len(identities)]  # fixed: checks sit at the median
        ops.append(cli_op(emalg, "check", ["check", path, identity], _check_expect(elems, table, identity)))
        ops.append(
            lib_op(
                "generated_membership",
                f"generated_membership {os.path.basename(path)} [U1]",
                lambda alg=alg: emalg.generated_membership(alg, [u1]),
                _membership_expect(elems, table),
                lambda o: o.value[0],
                undecided=lambda v: v[0] is None,
            )
        )
    # one fixed interleaving of the op kinds, the same for every seed, so
    # that the seed changes inputs but not where the costly ops sit in the
    # session (later two-letter decisions pay for a larger intern table)
    random.Random(0).shuffle(ops)
    return ops


BUILDERS = {"laws": laws_ops, "syn-large": syn_large_ops, "decide-small": decide_small_ops}


def build(emalg, workload: str, seed: int, workdir: str) -> list[Op]:
    return BUILDERS[workload](emalg, seed, workdir)
