"""Span recorder for the traced run, kept in the benchmark's own files.

``Recorder.install`` wraps epsym's public functions and rebinds every
``epsym.*`` module attribute that refers to the same function object
(``cumulants.nc_eps_set`` is ``partitions.nc_eps_set``, ``indicator.t_pi``
is ``tensormaps.t_pi``), and wraps the ``TensorMap`` methods, so calls
made inside the library are recorded too.  ``uninstall`` restores the
originals.  Private helpers and ``EpsilonMatrix.__getitem__`` are not
wrapped: their time is self time of the public function that calls them.

A span is (name, start, end, parent, item id).  Spans stay in compact
arrays until the run ends.  Spans are recorded only while an item is
open, so input preparation and output checks leave none.  Hooks read
exact work counts from return values; a hook runs before its span closes,
so its small cost is charged to the function it counts.
"""

from __future__ import annotations

import sys
import time
from array import array
from functools import update_wrapper

from epsym.tensormaps import TensorMap

MARK = "_perfbench_span"


def _entries(rec, out, args):
    rec.add("tensormaps.entries_built", sum(len(r) for r in out.rows.values()))
    rec.peak("tensormaps.peak_rows", len(out.rows))


def _generated(rec, out, args):
    # candidates enumerated for nc_eps_set to filter
    if rec.parent_name() == "partitions.nc_eps_set":
        rec.add("partitions.generated", len(out))


def _admitted(rec, out, args):
    rec.add("partitions.admitted", len(out))


def _trace_steps(rec, out, args):
    trace, mp = out
    case1 = sum(1 for s in trace.steps if s.case == 1)
    rec.add("indicator.steps_case1", case1)
    rec.add("indicator.steps_case2", len(trace.steps) - case1)
    rec.add("indicator.materialised" if mp is not None else "indicator.walked", 1)


def _letters(rec, out, args):
    rec.add("groups.letters_in", len(args[0]))
    rec.add("groups.letters_cancelled", len(args[0]) - len(out))


# (module, function, hook); hooks take (recorder, result, call arguments)
FUNCTIONS = (
    ("partitions", "enumerate_partitions", _generated),
    ("partitions", "nc_eps_set", _admitted),
    ("partitions", "in_nc_eps", None),
    ("partitions", "find_noncrossing_subpartition", None),
    ("partitions", "find_case2_index", None),
    ("cumulants", "moment", None),
    ("cumulants", "kappa_pi", None),
    ("tensormaps", "t_pi", _entries),
    ("tensormaps", "r_map", _entries),
    ("indicator", "run_algorithm", _trace_steps),
    ("indicator", "compose_trace_map", None),
    ("indicator", "evaluate_trace", None),
    ("indicator", "verify_oracle", None),
    ("groups", "word_reduce", _letters),
    ("epsmat", "preset", None),
    ("epsmat", "make_epsilon", None),
    ("epsmat", "comm", None),
    ("epsmat", "free", None),
    ("epsmat", "block", None),
)

# TensorMap attribute -> (span name, hook)
METHODS = {
    "identity": ("tensormaps.identity", _entries),
    "tensor": ("tensormaps.tensor", _entries),
    "__matmul__": ("tensormaps.matmul", _entries),
    "scalar_at": ("tensormaps.scalar_at", None),
}


def _epsym_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "epsym" or name.startswith("epsym.")]


class Recorder:
    """Spans and work counts of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current: int | None = None  # open item id; None records nothing
        self.counts: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- counts -----------------------------------------------------------

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: int) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def parent_name(self) -> str | None:
        """Name of the span enclosing the one now closing."""
        idx = self.stack[-2]
        return self.names[self.name[idx]] if idx >= 0 else None

    def take_counts(self) -> dict[str, int]:
        out, self.counts = self.counts, {}
        return out

    # -- spans ------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording one span per call while an item is open."""
        nid = self.name_id(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.current is None:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1])
            self.item.append(self.current)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, out, args)
                return out
            finally:
                self.end[idx] = clock()
                self.stack.pop()

        update_wrapper(wrapper, fn)
        setattr(wrapper, MARK, name)
        return wrapper

    def record(self, item: int, fn, *args):
        """Call ``fn(*args)`` as item ``item``; ``fn`` should come from
        ``wrap("item", ...)`` so that the item is the root span."""
        self.current = item
        try:
            return fn(*args)
        finally:
            self.current = None

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = _epsym_modules()
        for modname, attr, hook in FUNCTIONS:
            orig = getattr(sys.modules["epsym." + modname], attr)
            wrapped = self.wrap(f"{modname}.{attr}", orig, hook)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for attr, (name, hook) in METHODS.items():
            raw = TensorMap.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, hook))
            else:
                wrapped = self.wrap(name, raw, hook)
            self._restore.append((TensorMap, attr, raw))
            setattr(TensorMap, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------

    def summarise(self, group_of) -> dict:
        """{group: {span name: [self seconds, calls]}}, grouping each span
        by ``group_of(item id)``."""
        own = self_durations(self.parent, self.start, self.end)
        out: dict = {}
        for idx, dur in enumerate(own):
            per = out.setdefault(group_of(self.item[idx]), {})
            acc = per.setdefault(self.names[self.name[idx]], [0.0, 0])
            acc[0] += dur
            acc[1] += 1
        return out

    def write(self, path, header: str) -> None:
        """All spans as tab-separated text: name, start, end, parent, item."""
        import gzip
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(f"# {header}\n# name\tstart\tend\tparent\titem\n")
            names = self.names
            for idx in range(len(self.name)):
                fh.write(f"{names[self.name[idx]]}\t{self.start[idx]!r}\t"
                         f"{self.end[idx]!r}\t{self.parent[idx]}\t{self.item[idx]}\n")


def self_durations(parent, start, end) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Children are sequential and nested inside their parent, so this is
    the part of the span's interval no child covers.
    """
    own = [e - s for s, e in zip(start, end)]
    for idx, par in enumerate(parent):
        if par >= 0:
            own[par] -= end[idx] - start[idx]
    return own


def wrapped_attributes() -> list[str]:
    """Every epsym attribute or TensorMap method that is a recorder wrapper."""
    found = []
    for mod in _epsym_modules():
        for key, value in list(vars(mod).items()):
            if callable(value) and not isinstance(value, type) \
                    and hasattr(value, MARK):
                found.append(f"{mod.__name__}.{key}")
    for key, value in vars(TensorMap).items():
        if hasattr(getattr(value, "__func__", value), MARK):
            found.append(f"TensorMap.{key}")
    return found


def assert_untraced() -> None:
    """Fail unless every epsym function is the original, unwrapped one."""
    found = wrapped_attributes()
    if found:
        raise RuntimeError("tracing wrappers still bound: " + ", ".join(found))

