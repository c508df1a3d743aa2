"""Spans around the library's layer boundaries, recorded from outside.

`Tracer.install` wraps the public functions of the traced modules and
two methods, then rebinds every `nlmp.*` module attribute that is the
very object it wrapped: a name imported with `from .x import f` lives
in several modules and each binding must lead to the wrapper.  A span
is (name, start, end, parent span, command id); spans are kept in flat
arrays while the run lasts and written out when it ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

TRACED_MODULES = ("parser", "model", "measurable", "measures", "bisim", "logic", "cli")
# cli's other public functions are the command bodies; leaving them
# unwrapped keeps argv handling, file reading and JSON rendering in
# cli.main's self time.
ONLY = {"cli": ("main",)}
METHODS = (("measures", "Measure", "value"), ("measurable", "Relation", "from_partition"))
ROUND_REPORTERS = ("bisim.largest_traditional", "bisim.largest_state", "bisim.smallest_stable_sigma")
DISTINCT_KEYED = ("measures.profile", "measures.Measure.value")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_command = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.command = 0
        self.keys: dict[str, list] = {name: [] for name in DISTINCT_KEYED}
        self.distinct: Counter = Counter()
        self.rounds = 0
        self.formulas: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        names, parents, commands = self.span_name, self.span_parent, self.span_command
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        keys = self.keys.get(name)
        on_return = None
        if name in ROUND_REPORTERS:
            def on_return(report):
                self.rounds += len(report.trace)
        elif name == "logic.logical_equivalence":
            def on_return(report):
                if report.fragment == "Lf":
                    self.formulas.append(len({id(f) for f in report.formulas.values()}))

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            commands.append(self.command)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if keys is not None:
                keys.append(args)
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def install(self, package) -> None:
        wrappers: dict[object, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{package.__name__}.{short}"]
            for attr, val in list(vars(mod).items()):
                public = inspect.isfunction(val) and val.__module__ == mod.__name__ and not attr.startswith("_")
                if public and (short not in ONLY or attr in ONLY[short]):
                    wrappers[val] = self._wrap(f"{short}.{attr}", val)
        prefix = package.__name__ + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{package.__name__}.{short}"], cls_name)
            raw = cls.__dict__[meth]
            self._restore.append((cls, meth, raw))
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self._wrap(f"{short}.{cls_name}.{meth}", raw.__func__)))
            else:
                setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", raw))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    def end_command(self) -> None:
        """Count the distinct argument keys of this command, by value."""
        for name, calls in self.keys.items():
            if name == "measures.profile":
                self.distinct[name] += len({(mu, lam) for mu, lam in calls})
            else:
                self.distinct[name] += len({(mu, frozenset(q)) for mu, q in calls})
            calls.clear()
        self.command += 1

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Per name: summed self time in seconds, and call count."""
        own = [0.0] * len(self.names)
        calls = Counter()
        names, parents = self.span_name, self.span_parent
        for i in range(len(names)):
            d = self.span_end[i] - self.span_start[i]
            own[names[i]] += d
            calls[self.names[names[i]]] += 1
            if parents[i] >= 0:
                own[names[parents[i]]] -= d
        return dict(zip(self.names, own)), calls

    def write(self, path) -> None:
        """One span per line: command, span id, parent id, name, start, end."""
        with open(path, "w", encoding="utf-8") as f:
            for i in range(len(self.span_name)):
                f.write(
                    f"{self.span_command[i]}\t{i}\t{self.span_parent[i]}\t"
                    f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
