"""Per-layer tracing from outside the program.

``install`` rebinds every listed public function of every ``emalg`` module,
in every ``emalg`` namespace that holds the same function object, to a
wrapper that opens a span.  Classes are traced through their ``__init__``
and methods through the class attribute.  Spans are aggregated as they
close: calls, self time (span time minus the time of wrapped child spans)
and exceptions raised, so a long run keeps no per-span list.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

WRAPPED = {
    "cli": ["main"],
    "automata": ["parse_regex", "dfa_to_recognizer"],
    "algio": ["parse_algebra"],
    "core": ["Preorder", "quotient_set"],
    "monads": [
        f"{cls}.{meth}"
        for cls in ("WordMonad", "OmegaMonad", "TreeMonad")
        for meth in ("flat", "map")
    ],
    "algebra": [
        "FinAlgebra",
        "subalgebra_generated",
        "is_congruence_ordering",
        "quotient_algebra",
        "product",
        "generated_tuples",
        "tuple_algebra",
        "is_morphism",
        "eval_element",
    ],
    "syntactic": [
        "syntactic_algebra",
        "saturate_all",
        "syntactic_preorder",
        "generated_pairs",
        "decompose_as_derivatives",
    ],
    "profinite": ["satisfies_all", "eval_term"],
    "logic": ["fo_definable", "recognizes_at_rank", "theory_algebra", "ef_type"],
    "varieties": ["canonical_cover", "divides", "generated_membership"],
    "lawsuite": [
        "check_monad_laws",
        "check_congruence_characterisations",
        "check_terminality",
        "check_syntactic_constants",
        "check_decomposition",
        "check_dual_deciders",
        "check_theory_constants",
        "check_wilke_invariance",
        "check_canonical_covers",
        "check_mod_closure",
    ],
}

RAISED = [
    "algebra.subalgebra_generated",
    "syntactic.syntactic_algebra",
    "logic.theory_algebra",
    "logic.recognizes_at_rank",
    "varieties.divides",
]

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]


class TracerError(RuntimeError):
    """A listed function is missing or could not be rebound everywhere."""


class Recorder:
    """Aggregates spans as they close.  ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.raised: Counter = Counter()
        self.counters: Counter = Counter()
        self.maxima: dict = {}
        self._stack: list = []  # [name, start, time in wrapped children]

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self, raised: bool = False) -> None:
        name, start, children = self._stack.pop()
        elapsed = self.clock() - start
        self.calls[name] += 1
        self.self_s[name] += elapsed - children
        if self._stack:
            self._stack[-1][2] += elapsed
        if raised:
            self.raised[name] += 1

    def active(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def note_max(self, key: str, value: int) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0), value)


def _count_context_functions(rec: Recorder, args, result) -> None:
    rec.counters["syntactic.context_functions"] += sum(len(fns) for fns in result.values())


def _count_preorder_pairs(rec: Recorder, args, result) -> None:
    rec.counters["syntactic.preorder_pairs"] += len(result.pairs())


def _note_carrier(rec: Recorder, args, result) -> None:
    rec.note_max("algebra.carrier_max", len(args[0].carrier))


def _count_divides_candidates(rec: Recorder, args, result) -> None:
    if rec.active("varieties.divides"):
        rec.counters["varieties.divides.candidates"] += 1


AFTER = {
    "syntactic.saturate_all": _count_context_functions,
    "syntactic.syntactic_preorder": _count_preorder_pairs,
    "algebra.FinAlgebra": _note_carrier,
    "algebra.generated_tuples": _count_divides_candidates,
}


def _wrap(fn, name: str, rec: Recorder):
    after = AFTER.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec.exit(raised=True)
            raise
        rec.exit()
        if after is not None:
            after(rec, args, result)
        return result

    return traced


def _package_modules(package: str) -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == package or n.startswith(package + ".")]


def _holders(ns, target) -> list:
    """Names in a module namespace that hold ``target``, directly or as an
    item of a module-level dict, list, tuple or set (a dispatch table)."""
    out = []
    for key, value in vars(ns).items():
        if value is target:
            out.append(key)
        elif isinstance(value, dict) and any(v is target for v in value.values()):
            out.append(f"{key}[...]")
        elif isinstance(value, (list, tuple, set, frozenset)) and any(v is target for v in value):
            out.append(f"{key}[...]")
    return out


def install(rec: Recorder, package: str = "emalg", wrapped: dict = WRAPPED) -> None:
    """Wrap every listed function of ``package``.  Raise TracerError if one
    is missing, if a listed method is inherited rather than defined on its
    class, or if any module of the package still holds the unwrapped
    function afterwards (say in a dispatch table), since its calls would
    then escape the trace and read as zero."""
    for mod in wrapped:
        importlib.import_module(f"{package}.{mod}")
    namespaces = _package_modules(package)
    originals = []
    for mod_name, fns in wrapped.items():
        mod = sys.modules[f"{package}.{mod_name}"]
        for spec in fns:
            name = f"{mod_name}.{spec}"
            owner_name, _, attr = spec.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            target = getattr(owner, attr, None)
            if target is None:
                raise TracerError(f"{name} does not exist")
            if isinstance(target, type):
                owner, attr, target = target, "__init__", target.__dict__.get("__init__")
            if owner is not mod:
                if target is None or attr not in vars(owner):
                    raise TracerError(f"{name} is not defined on its class")
                setattr(owner, attr, _wrap(target, name, rec))
                continue
            tracer_fn = _wrap(target, name, rec)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is target:
                        setattr(ns, key, tracer_fn)
            originals.append((name, target))
    for name, target in originals:
        for ns in _package_modules(package):
            held = _holders(ns, target)
            if held:
                raise TracerError(f"{name} is still unwrapped in {ns.__name__}: {', '.join(held)}")


def layer_metrics(rec: Recorder) -> dict:
    """Every per-layer metric name with its value; unused layers read 0."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = rec.calls[name]
        out[f"{name}.self_s"] = rec.self_s[name]
    for name in RAISED:
        out[f"{name}.raised"] = rec.raised[name]
    for key in ("syntactic.context_functions", "syntactic.preorder_pairs", "varieties.divides.candidates"):
        out[key] = rec.counters[key]
    out["algebra.carrier_max"] = rec.maxima.get("algebra.carrier_max", 0)
    return out
