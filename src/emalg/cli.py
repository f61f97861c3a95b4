"""The command-line surface: language ingestion and one subcommand per
decision procedure.

Exit codes: 0 for a positive outcome, 1 for a negative verdict, 2 for input
errors, 3 for an exceeded search, theory or carrier bound, 4 for an internal
inconsistency (a failed cross-check: a bug, not bad input), reported with
the exception's witness when it has one.  Reports are emitted as a single
JSON record with a fixed key order (command, verdict, evidence, timing_ms);
timing is null, and the ``laws`` evidence carries no per-check ``ms``,
unless --timing is given, so that reports are byte-stable across runs
(``laws --seed`` is only echoed in the verdict).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .algebra import FinAlgebra, NotCongruence, _table
from .algio import ParseError, load_algebra, parse_dfa_file
from .automata import Dfa, RegexSyntaxError, dfa_to_recognizer, parse_regex
from .core import CarrierBoundExceeded, NoFactorisation, _members
from .lawsuite import run_all
from .logic import TheoryBoundExceeded, cached_theory_algebra, fo_definable
from .profinite import identity_library, parse_inequalities, satisfies_all
from .syntactic import (
    SyntacticResult,
    context_to_str,
    decompose_as_derivatives,
    syntactic_algebra,
)
from .varieties import SearchBoundExceeded, canonical_cover

EXIT_OK, EXIT_NEGATIVE, EXIT_INPUT, EXIT_BOUND, EXIT_INTERNAL = 0, 1, 2, 3, 4


def _emit(command: str, verdict, evidence, args) -> None:
    elapsed = time.perf_counter() - args._t0
    report = {
        "command": command,
        "verdict": verdict,
        "evidence": evidence,
        "timing_ms": round(elapsed * 1000, 1) if args.timing else None,
    }
    print(json.dumps(report, indent=2, default=str))


def _load_language(arg: str, args=None) -> Dfa:
    if os.path.isfile(arg):
        with open(arg, encoding="utf-8") as fh:
            return parse_dfa_file(fh.read())
    alphabet = getattr(args, "alphabet", None)
    return parse_regex(arg, tuple(alphabet) if alphabet else None)


def _warn_if_epsilon(evidence: dict, dfa: Dfa) -> None:
    """Say in the evidence that the empty word was dropped, if the regex
    matched it: every language here is taken over nonempty words."""
    if dfa.matches_epsilon:
        evidence["warning"] = "regex matched the empty word; language taken over nonempty words"


def _element_names(alg: FinAlgebra) -> dict:
    return {e: f"e{i}" for i, e in enumerate(alg.carrier)}


def _dump_syntactic(syn: SyntacticResult) -> dict:
    """The report of a syntactic algebra, named, ordered and tabled over
    its carrier's numbering: element i is named e<i>.  The table comes in
    the order of the texts of ((a, b), a b), as over labels: it is written
    by walking a over the elements in the order of their reprs' texts and,
    for each a, b in the same order.

    The two orders agree.  The elements are tuples of ints
    (``dfa_to_recognizer``), whose reprs are prefix-free: each ends at its
    first ')'.  So the texts of two entries first differ inside the first
    component whose reprs differ, where the order of those two reprs
    decides.  A distinct tuple has a distinct repr, and a and b fix the
    entry, so the rank of a's repr, then of b's, orders the entries as
    their texts do, with no ties.  The product is total, so the walk
    writes every entry once."""
    alg = syn.syn_algebra
    n = len(alg.carrier)
    names, index = [f"e{i}" for i in range(n)], alg.carrier._index
    by_text = sorted(range(n), key=[repr(e) for e in alg.carrier].__getitem__)
    mult = _table(alg, "mult", 2)
    return {
        "size": n,
        "elements": names,
        "letters": {str(c): names[index[v]] for c, v in sorted(syn.letter_map.items(), key=repr)},
        "accepting": sorted(names[index[e]] for e in syn.accepting),
        "order": sorted(
            f"{names[i]} <= {names[j]}"
            for i, row in enumerate(alg.carrier._rows)
            for j in _members(row)
            if i != j
        ),
        "table": {
            f"{names[a]} {names[b]}": names[mult[a + b * n]] for a in by_text for b in by_text
        },
    }


def _cmd_syn(args) -> int:
    dfa = _load_language(args.language, args)
    syn = syntactic_algebra(dfa_to_recognizer(dfa))
    evidence = _dump_syntactic(syn)
    _warn_if_epsilon(evidence, dfa)
    _emit("syn", {"size": syn.size()}, evidence, args)
    return EXIT_OK


def _cmd_decide(args) -> int:
    dfa = _load_language(args.language, args)
    v = fo_definable(dfa, rank_bound=args.rank_bound)
    evidence = {
        "aperiodic": v.aperiodic,
        "witness_rank": v.witness_rank,
        "counterexample": (
            {"inequality": v.counterexample[0], "assignment": {k: str(x) for k, x in v.counterexample[1].items()}}
            if v.counterexample
            else None
        ),
        "inconclusive_rank": v.inconclusive_rank,
        "blocked_at_rank": v.blocked_at_rank,
        "syntactic_size": v.syn_size,
    }
    _warn_if_epsilon(evidence, dfa)
    _emit("decide fo", {"definable": v.definable}, evidence, args)
    return EXIT_OK if v.definable else EXIT_NEGATIVE


def _cmd_check(args) -> int:
    alg = load_algebra(args.algfile)
    lib = identity_library()
    if args.inequality in lib:
        ineqs = lib[args.inequality]
    else:
        ineqs = parse_inequalities(args.inequality)
    ok, fail = satisfies_all(alg, ineqs)
    evidence = {"inequalities": [str(i) for i in ineqs]}
    if fail:
        ineq, beta = fail
        evidence["counterexample"] = {
            "inequality": str(ineq),
            "assignment": {k: str(v) for k, v in beta.items()},
        }
    _emit("check", {"satisfied": ok}, evidence, args)
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_decompose(args) -> int:
    dfa = _load_language(args.language, args)
    syn = syntactic_algebra(dfa_to_recognizer(dfa))
    names = _element_names(syn.syn_algebra)
    if args.target in (None, "K"):
        target = syn.accepting
    else:
        by_name = {v: k for k, v in names.items()}
        try:
            target = frozenset(by_name[t.strip()] for t in args.target.split(","))
        except KeyError as exc:
            raise ValueError(f"--target names unknown element {exc.args[0]!r}") from exc
    dec = decompose_as_derivatives(syn, target)
    # every word of 1 to 6 letters, as the index of its value in the
    # recognizer's algebra: each its prefix's value times its last letter's,
    # one table read; each distinct value is matched once
    alg = syn.recognizer.algebra
    mult, n = _table(alg, "mult", 2), len(alg.carrier)
    letters = [dec._letter[c] for c in dfa.alphabet]
    values = dict.fromkeys(letters)
    level = letters
    for _ in range(2, 7):
        level = [mult[v + c * n] for v in level for c in letters]
        values.update(dict.fromkeys(level))
    elems = alg.carrier._by_index
    agree = all(
        dec._matches_value([v]) == (syn.syn_morphism(elems[v]) in target) for v in values
    )
    evidence = {
        "target": sorted(names[e] for e in target),
        "clauses": [
            {
                "class": names[a],
                "contexts": [context_to_str(c, str) for c in ctxs],
            }
            for a, ctxs in dec.clauses
        ],
        "verified_up_to_length_6": agree,
    }
    _warn_if_epsilon(evidence, dfa)
    _emit("decompose", {"clauses": len(dec.clauses), "verified": agree}, evidence, args)
    return EXIT_OK if agree else EXIT_NEGATIVE


def _cmd_theory(args) -> int:
    theta = cached_theory_algebra(args.alphabet, args.rank)
    mult, n = _table(theta.algebra, "mult", 2), theta.size()  # class ids are the indices
    evidence = {
        "classes": theta.size(),
        "representatives": {
            f"c{i}": "".join(map(str, rep)) for i, rep in theta.reps.items()
        },
        "letters": {str(c): f"c{i}" for c, i in theta.letter_class.items()},
        "table": {
            f"c{i} c{j}": f"c{mult[i + j * n]}" for i in range(n) for j in range(n)
        },
    }
    _emit("theory", {"classes": theta.size()}, evidence, args)
    return EXIT_OK


def _cmd_cover(args) -> int:
    alg = load_algebra(args.algfile)
    cov = canonical_cover(alg)
    names = _element_names(alg)
    evidence = {
        "components": {
            str(names.get(a, a)): comp.size() for a, comp in cov.components.items()
        },
        "cover_size": len(cov.cover.carrier),
        "surjection_verified": cov.mu.is_surjective(),
    }
    _emit("cover", {"components": len(cov.components)}, evidence, args)
    return EXIT_OK


def _cmd_laws(args) -> int:
    results = run_all()
    ok = all(r.ok for r in results)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'}  {r.name:32s} {r.seconds:7.2f}s  {r.detail}")
    evidence = {r.name: {"ok": r.ok, "detail": r.detail} for r in results}
    if args.timing:
        for r in results:
            evidence[r.name]["ms"] = round(r.seconds * 1000, 1)
    _emit("laws", {"ok": ok, "seed": args.seed}, evidence, args)
    return EXIT_OK if ok else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="emalg",
        description="Syntactic algebras, profinite inequalities and "
        "first-order definability for regular languages.",
    )
    p.add_argument("--timing", action="store_true", help="include timing in reports")
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("syn", help="syntactic algebra of a language")
    s.add_argument("language", help="regex or DFA file path")
    s.add_argument("--alphabet", help="letters for the regex, e.g. 'ab'")
    s.set_defaults(fn=_cmd_syn)

    s = sub.add_parser("decide", help="definability decision")
    s.add_argument("logic", choices=["fo"])
    s.add_argument("language")
    s.add_argument("--alphabet", help="letters for the regex, e.g. 'ab'")
    s.add_argument("--rank-bound", type=int, default=5)
    s.set_defaults(fn=_cmd_decide)

    s = sub.add_parser("check", help="inequality satisfaction on an algebra file")
    s.add_argument("algfile")
    s.add_argument("inequality", help="an inequality, an identity, or a library name")
    s.set_defaults(fn=_cmd_check)

    s = sub.add_parser("decompose", help="derivative decomposition of a target")
    s.add_argument("language")
    s.add_argument("--alphabet", help="letters for the regex, e.g. 'ab'")
    s.add_argument("--target", default="K", help="'K' or comma-separated class names")
    s.set_defaults(fn=_cmd_decompose)

    s = sub.add_parser("theory", help="rank-m theory algebra of an alphabet")
    s.add_argument("rank", type=int)
    s.add_argument("alphabet")
    s.set_defaults(fn=_cmd_theory)

    s = sub.add_parser("cover", help="canonical cover of an algebra file")
    s.add_argument("algfile")
    s.set_defaults(fn=_cmd_cover)

    s = sub.add_parser("laws", help="run the full invariant suite")
    s.add_argument("--seed", type=int, default=0, help="echoed in the verdict; no check reads it")
    s.set_defaults(fn=_cmd_laws)
    return p


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser as it was, so in-process callers share one
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    args._t0 = time.perf_counter()
    try:
        return args.fn(args)
    except (ParseError, RegexSyntaxError, OSError, ValueError) as exc:
        print(json.dumps({"command": args.cmd, "error": str(exc)}, indent=2))
        return EXIT_INPUT
    except (TheoryBoundExceeded, SearchBoundExceeded, CarrierBoundExceeded) as exc:
        print(json.dumps({"command": args.cmd, "error": str(exc)}, indent=2))
        return EXIT_BOUND
    except (NotCongruence, NoFactorisation, AssertionError) as exc:
        report = {"command": args.cmd, "error": str(exc) or type(exc).__name__}
        if getattr(exc, "witness", None) is not None:
            report["witness"] = exc.witness
        print(json.dumps(report, indent=2, default=str))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
