"""Span tracing of the library's public functions, installed from outside.

``Tracer.installed()`` replaces each function in ``LAYER_FUNCTIONS`` by a
wrapper that records one span per call (name, start, end, parent) in memory
and restores the originals on exit.  Callers inside the package look these
functions up through their module (``fe.integrate_callable``,
``red_mod.decompose``, ...) or their class (``ReducedEquation.tau_at``), so
the wrappers see every call without any change to the package itself.

Besides the spans the tracer keeps four work counters, each measured at the
boundary where the work happens:

* ``expr.integrand_evals``  calls of the integrand handed to
  ``integrate_callable``;
* ``verify.ode_nfev``       ``nfev`` of every ``solve_ivp`` result;
* ``verify.dense_evals``    calls into the ``OdeSolution`` it returns;
* accepted pairs and ``tau_at`` calls made directly by
  ``check_t_independence`` (their ratio is the pair accept ratio).
"""

from __future__ import annotations

import contextlib
import time

# (layer, owner attribute path, function name).  The owner path is relative
# to the ``fuchsreduce`` package: a module, or a class inside one.
LAYER_FUNCTIONS: tuple[tuple[str, str, str], ...] = (
    ("cli", "cli", "main"),
    ("catalog", "catalog", "lookup"),
    ("catalog", "catalog", "flow_residual"),
    ("scalarize", "scalarize", "scalar_coefficients"),
    ("scalarize", "scalarize", "frobenius_residual_grid"),
    ("expr", "expr", "compile_expr"),
    ("expr", "expr", "integrate_callable"),
    ("expr", "expr", "numerically_zero"),
    ("reduction", "reduction", "decompose"),
    ("reduction", "reduction", "build_reduced"),
    ("reduction", "reduction.ReducedEquation", "tau_at"),
    ("reduction", "reduction.ReducedEquation", "solve_t"),
    ("reduction", "reduction.ReducedEquation", "coefficients_at"),
    ("verify", "verify", "prepare"),
    ("verify", "verify", "check_t_independence"),
    ("verify", "verify", "match_classical"),
    ("verify", "verify", "cross_validate"),
    ("verify", "verify", "solve_ivp"),
    ("verify", "verify", "full_report"),
)

SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, _, fn in LAYER_FUNCTIONS)
COUNTER_NAMES = ("expr.integrand_evals", "verify.ode_nfev", "verify.dense_evals",
                 "verify.pairs_accepted", "verify.pair_tau_calls")

_CHECK = "verify.check_t_independence"


class _CountingSolution:
    """Delegates to an ``OdeSolution`` and counts the calls made into it."""

    def __init__(self, sol, counters: dict):
        self._sol = sol
        self._counters = counters

    def __call__(self, s):
        self._counters["verify.dense_evals"] += 1
        return self._sol(s)

    def __getattr__(self, name):
        return getattr(self._sol, name)


class Tracer:
    """One span per wrapped call plus the work counters, all in memory.

    Spans are stored in parallel lists indexed by span number; ``parent`` is
    the index of the enclosing span, or -1.  ``raised`` holds the exception
    class name of the spans whose call raised."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.raised: dict[int, str] = {}
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack: list[int] = []
        self._pair_successes = 0

    # -- recording -------------------------------------------------------
    def _wrap(self, name: str, fn):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack
        clock = time.perf_counter_ns
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(names)
            names.append(name)
            parents.append(parent)
            starts.append(0)
            ends.append(0)
            if before is not None:
                args = before(parent, args)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[idx] = type(exc).__name__
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(parent, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _in_check(self, parent: int) -> bool:
        return parent >= 0 and self.names[parent] == _CHECK

    def _before_expr_integrate_callable(self, parent, args):
        fn = args[0]
        counters = self.counters

        def counted(z):
            counters["expr.integrand_evals"] += 1
            return fn(z)

        return (counted, *args[1:])

    def _after_verify_solve_ivp(self, parent, result):
        self.counters["verify.ode_nfev"] += int(result.nfev)
        if getattr(result, "sol", None) is not None:
            result.sol = _CountingSolution(result.sol, self.counters)

    def _before_reduction_tau_at(self, parent, args):
        # check_t_independence makes one tau_at call per pair attempt.
        if self._in_check(parent):
            self.counters["verify.pair_tau_calls"] += 1
            self._pair_successes = 0
        return args

    def _after_reduction_coefficients_at(self, parent, result):
        # A pair is accepted once both of its coefficient evaluations
        # return; nothing after them can reject it.
        if self._in_check(parent):
            self._pair_successes += 1
            if self._pair_successes == 2:
                self.counters["verify.pairs_accepted"] += 1

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap every function in ``LAYER_FUNCTIONS`` of ``package`` for the
        duration of the block."""
        saved = []
        try:
            for layer, owner_path, fn_name in LAYER_FUNCTIONS:
                owner = package
                for part in owner_path.split("."):
                    owner = getattr(owner, part)
                original = owner.__dict__[fn_name]
                saved.append((owner, fn_name, original))
                setattr(owner, fn_name, self._wrap(f"{layer}.{fn_name}", original))
            yield self
        finally:
            for owner, fn_name, original in reversed(saved):
                setattr(owner, fn_name, original)

    # -- aggregation -----------------------------------------------------
    def self_times_ns(self) -> dict[str, int]:
        """Per span name: total duration minus the time its direct child
        spans cover (children of one span never overlap: one thread)."""
        n = len(self.names)
        child_ns = [0] * n
        for idx in range(n):
            parent = self.parents[idx]
            if parent >= 0:
                child_ns[parent] += self.ends[idx] - self.starts[idx]
        out = dict.fromkeys(SPAN_NAMES, 0)
        for idx in range(n):
            out[self.names[idx]] += self.ends[idx] - self.starts[idx] - child_ns[idx]
        return out

    def call_counts(self) -> dict[str, int]:
        out = dict.fromkeys(SPAN_NAMES, 0)
        for name in self.names:
            out[name] += 1
        return out

    def raised_in(self, span_name: str) -> str | None:
        """Exception class raised by the first span of that name, if any."""
        for idx in sorted(self.raised):
            if self.names[idx] == span_name:
                return self.raised[idx]
        return None
