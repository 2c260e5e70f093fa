"""Per-layer tracing of trapgas from outside the package.

The package imports functions by value (``green_trapped`` holds its own
reference to ``legendre.p_scaled``; ``cli`` and ``checks`` hold theirs to
``spectral_density`` and ``matsubara_assemble``), so wrapping a function in its
defining module alone would miss most calls.  ``Tracer.install`` therefore
rebinds every name, in every loaded ``trapgas`` module, that refers to a public
function of the traced modules, and ``uninstall`` puts the originals back.

Each wrapped call records a span (id, name, start, end, parent id, invocation
id) in memory; ``write_spans`` writes them out when the run ends.  A few layers
also record work counters at the same boundary:

* ``legendre.p_scaled``: series terms, the longest series, and the share of
  calls whose (nu, u) was already evaluated in the same invocation;
* ``green_trapped.matsubara_assemble``: frequencies (its ``spectral_density``
  calls), the share of calls that swap the arguments of an earlier call, and
  the share of frequency terms larger than the accuracy target times |G|.

Wrappers pass arguments and results through untouched, so traced output is
identical to untraced output.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

TRACED_MODULES = ("legendre", "green_trapped", "green_homogeneous", "correlator", "oracle", "checks", "cli")

_P_SCALED = "legendre.p_scaled"
_DENSITY = "green_trapped.spectral_density"
_ASSEMBLE = "green_trapped.matsubara_assemble"


class Tracer:
    def __init__(self, accuracy_target: float):
        self.accuracy_target = accuracy_target
        self.spans = []  # (id, name, start, end, parent id, invocation id)
        self.invocation = -1
        self._stack = []
        self._next_id = 0
        self._patched = []  # (module, attribute, original)
        self._signatures = {}
        self._origin = perf_counter()

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        names = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"trapgas.{short}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    names[obj] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in names.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "trapgas" or modname.startswith("trapgas.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        on_enter = {_ASSEMBLE: self._enter_assemble}.get(name)
        on_exit = {
            _P_SCALED: self._exit_p_scaled,
            _DENSITY: self._exit_density,
            _ASSEMBLE: self._exit_assemble,
        }.get(name)
        if on_enter is not None:
            self._signatures[name] = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = self._next_id
            self._next_id += 1
            if on_enter is not None:
                on_enter(sid, args, kwargs)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, name, t0 - self._origin, t1 - self._origin, parent, self.invocation))
            if on_exit is not None:
                on_exit(sid, parent, args, kwargs, result)
            return result

        return wrapper

    # -- invocations ----------------------------------------------------------

    def begin_invocation(self) -> None:
        self.invocation += 1
        self._first_span = len(self.spans)
        self._counts = defaultdict(float)
        self._p_seen = set()
        self._assemble_seen = set()
        self._assembling = {}

    def end_invocation(self, wall_s: float) -> tuple:
        """(counters, self times in seconds) of the invocation just finished."""
        spans = self.spans[self._first_span:]
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in spans:
            child_time[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for sid, name, start, end, _, _ in spans:
            self_s[name] += (end - start) - child_time[sid]
            calls[name] += 1
        c = self._counts
        counters = {f"{name}.calls": n for name, n in calls.items()}
        counters.update({
            f"{_P_SCALED}.terms": int(c["p_terms"]),
            f"{_P_SCALED}.terms_max": int(c["p_terms_max"]),
            f"{_P_SCALED}.repeat_frac": _ratio(c["p_repeat"], calls[_P_SCALED]),
            f"{_ASSEMBLE}.frequencies": int(c["frequencies"]),
            f"{_ASSEMBLE}.mirror_frac": _ratio(c["mirror"], calls[_ASSEMBLE]),
            f"{_ASSEMBLE}.useful_freq_frac": _ratio(c["useful"], c["frequencies"]),
        })
        times = {f"{name}.self_s": t for name, t in self_s.items()}
        times[f"{_P_SCALED}.self_share"] = self_s[_P_SCALED] / wall_s
        return counters, times

    # -- layer counters -------------------------------------------------------

    def _exit_p_scaled(self, sid, parent, args, kwargs, result):
        nu = args[0] if args else kwargs["nu"]
        u = args[1] if len(args) > 1 else kwargs["u"]
        key = (nu, u)
        c = self._counts
        if key in self._p_seen:
            c["p_repeat"] += 1
        else:
            self._p_seen.add(key)
        terms = result[1]
        c["p_terms"] += terms
        if terms > c["p_terms_max"]:
            c["p_terms_max"] = terms

    def _exit_density(self, sid, parent, args, kwargs, result):
        terms = self._assembling.get(parent)
        if terms is not None:
            terms.append((result.omega, result.re_part))

    def _enter_assemble(self, sid, args, kwargs):
        self._assembling[sid] = []

    def _exit_assemble(self, sid, parent, args, kwargs, result):
        a = self._signatures[_ASSEMBLE].bind(*args, **kwargs).arguments
        terms = self._assembling.pop(sid)
        c = self._counts
        key = (a["x"], a["tau"], a["xp"], a["taup"])
        if (a["xp"], a["taup"], a["x"], a["tau"]) in self._assemble_seen:
            c["mirror"] += 1
        self._assemble_seen.add(key)
        beta = a["p"].beta
        dtau = a["tau"] - a["taup"]
        floor = self.accuracy_target * abs(result.value.real)
        c["frequencies"] += len(terms)
        for omega, re_part in terms:
            weight = 1.0 if omega == 0.0 else 2.0
            if abs(weight * math.cos(omega * dtau) * re_part / beta) > floor:
                c["useful"] += 1

    # -- output ---------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["id", "name", "start_s", "end_s", "parent", "invocation"]}\n')
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
