"""Spans around pairkit's public functions, recorded from outside the package.

`Tracer.install` rebinds every module attribute (and the few class
attributes) that refers to a traced function, so calls through names that
modules import from each other (`pairs.eliminate`, `cli.check_alpha_pair`)
are traced too.  Spans stay in memory as flat lists: name, start, end,
parent span index and call id.  Self time is a span's duration minus the
durations of its direct children; calls are sequential, so children never
overlap.
"""

import sys
import time
from math import comb

# (defining module, attribute path) of every traced function
TRACED = (
    ("gbasis", "buchberger"), ("gbasis", "eliminate"),
    ("gbasis", "ideal_dimension"), ("gbasis", "poly_divmod"),
    ("gbasis", "saturate"),
    ("pairs", "transcendence_degree"), ("pairs", "check_pair_identity"),
    ("pairs", "kernel_acts_trivially"), ("pairs", "build_fppf_cover"),
    ("pairs", "check_alpha_pair"),
    ("groups", "validate_group_law"), ("groups", "is_surjective"),
    ("groups", "validate_endomorphism"),
    ("actions", "validate_action"), ("actions", "CoAction.is_invariant"),
    ("linalg", "jacobian_rank"), ("linalg", "formal_jacobian_rank"),
    ("invariants", "dixmier_generators"), ("invariants", "verify_generators"),
    ("invariants", "factor_through_kernel"), ("invariants", "nagata_build"),
    ("problem", "parse_problem"), ("problem", "render_problem"),
    ("poly", "Polynomial.subs_poly"), ("poly", "Polynomial.subs_rational"),
    ("cli", "run"),
)
NAMES = tuple(f"{mod}.{attr}" for mod, attr in TRACED)
ROOT = "call"
# span fields
NAME, START, END, PARENT, CALL, ARGS, RESULT = range(7)
# spans whose arguments and result are kept for the counters below
KEEP_IO = {"gbasis.buchberger", "gbasis.ideal_dimension"}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        keep = name in KEEP_IO

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], spans[stack[-1]][CALL], None, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if keep:
                span[ARGS] = args
                span[RESULT] = result
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def root(self, call_id):
        """Open the root span of one CLI call; returns its closer."""
        index = len(self.spans)
        self.spans.append([ROOT, 0.0, 0.0, -1, call_id, None, None])
        self._stack.append(index)
        self.spans[index][START] = time.perf_counter()

        def close():
            self.spans[index][END] = time.perf_counter()
            self._stack.pop()
        return close

    # -- patching -----------------------------------------------------------

    def install(self):
        import pairkit  # noqa: F401  (loads every submodule)

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "pairkit" or name.startswith("pairkit.")}
        wrappers = {}
        for mod, path in TRACED:
            owner = modules[f"pairkit.{mod}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{mod}.{path}", original)
            wrappers[id(original)] = wrapper
            if outer:
                self._patch(owner, attr, wrapper)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def _self_times(self, first, last):
        """spans[first:last] and the self time of each; the range must hold
        whole root spans."""
        spans = self.spans[first:last]
        own = [span[END] - span[START] for span in spans]
        for span in spans:
            if span[PARENT] >= 0:
                own[span[PARENT] - first] -= span[END] - span[START]
        return spans, own

    def summary(self, first, last):
        """Per-function calls and self time, and the counters read off
        buchberger and ideal_dimension, over spans[first:last]."""
        spans, own = self._self_times(first, last)
        calls = dict.fromkeys(NAMES + (ROOT,), 0)
        self_s = dict.fromkeys(NAMES + (ROOT,), 0.0)
        per_call = {}
        buch = {"in_gens": 0, "out_basis_size": 0, "out_max_degree": 0,
                "out_coeff_bits_max": 0}
        subsets = 0
        for span, seconds in zip(spans, own):
            name = span[NAME]
            calls[name] += 1
            self_s[name] += seconds
            if name == "pairs.check_alpha_pair":
                per_call[span[CALL]] = per_call.get(span[CALL], 0) + 1
            elif name == "gbasis.buchberger":
                _count_basis(buch, span[ARGS][0], span[RESULT])
            elif name == "gbasis.ideal_dimension":
                subsets += subsets_computed(span[ARGS][0].ring.nvars, span[RESULT])
        return {"calls": calls, "self_s": self_s, "buchberger": buch,
                "subsets_computed": subsets, "alpha_checks_per_call": per_call}

    def root_residual(self, first, last):
        """Largest |root duration - sum of self times of its spans|."""
        spans, own = self._self_times(first, last)
        totals = {}
        for span, seconds in zip(spans, own):
            totals[span[CALL]] = totals.get(span[CALL], 0.0) + seconds
        return max((abs(span[END] - span[START] - totals[span[CALL]])
                    for span in spans if span[PARENT] < 0), default=0.0)

    def rows(self):
        """Spans as plain lists for writing out: name, start, end, parent,
        call id (times relative to the first span)."""
        base = self.spans[0][START] if self.spans else 0.0
        return [[s[NAME], round(s[START] - base, 9), round(s[END] - base, 9),
                 s[PARENT], s[CALL]] for s in self.spans]


def _count_basis(acc, gens, basis):
    acc["in_gens"] += sum(1 for g in gens if not g.is_zero())
    acc["out_basis_size"] += len(basis)
    for p in basis:
        acc["out_max_degree"] = max(acc["out_max_degree"], p.total_degree())
        for c in p.terms.values():    # Fraction over Q, int over F_p
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            acc["out_coeff_bits_max"] = max(acc["out_coeff_bits_max"], bits)


def subsets_computed(nvars, dimension):
    """Subsets the Krull-dimension search tests, derived from nvars and the
    returned dimension: every subset larger than the dimension fails, then
    the first subset of that size succeeds.  Zero when no search runs (unit
    or zero ideal)."""
    if dimension < 0 or dimension == nvars:
        return 0
    return sum(comb(nvars, k) for k in range(dimension + 1, nvars + 1)) + 1
