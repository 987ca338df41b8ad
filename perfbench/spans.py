"""Span tracing of the latticeepr layers from outside the package.

`Tracer.install` replaces every public function of the package modules
(plus `LiddiField.from_atom`) with a wrapper that records a span: name,
start, end and the span that was open when it was called.  Nothing under
`src/` changes; the wrappers are swapped into the module namespaces and
module-level dicts that hold the original function objects, and swapped
back by `Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
import types
from dataclasses import dataclass, field

PACKAGE = "latticeepr"
LAYERS = ("parameters", "band_structure", "liddi", "two_atom", "distributions", "protocol", "cli")

# `cli.main` is the operation itself; the benchmark times it as the root.
NOT_TRACED = {"cli.main"}


@dataclass
class Span:
    name: str
    id: str
    parent: str | None
    start: float
    end: float
    counts: dict = field(default_factory=dict)


def _first(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _joint_counts(args, kwargs, joint) -> dict:
    states = _first(args, kwargs, "states")
    n_sites = states[0].site_count
    n_p = joint.axis1.size
    return {
        "states": len(states),
        "grid_points": n_p * n_p,
        # phases @ C @ phases.T per state: (n_p x N)(N x N) then (n_p x N)(N x n_p)
        "madds": len(states) * (n_p * n_sites**2 + n_p**2 * n_sites),
        "mass": joint.mass,
    }


def _eigh_counts(args, kwargs, spectrum) -> dict:
    dim = spectrum.site_count**2
    # symmetric QR with eigenvectors, ~9 n^3 flops (Golub & Van Loan)
    return {"dim": dim, "flops": 9 * dim**3}


# Work counts computed from arguments and results, recorded per call.  All
# but `mass` are computed from array sizes, not measured.
COUNTERS = {
    "two_atom.diagonalize": _eigh_counts,
    "protocol.evolve": lambda args, kwargs, trace: {"dim": trace.states[0].site_count ** 2},
    "distributions.thermal_momentum_joint": _joint_counts,
    "distributions.thermal_position_joint": lambda args, kwargs, joint: {
        "states": len(_first(args, kwargs, "states"))
    },
}
COMPUTED_COUNTS = ("dim", "flops", "states", "grid_points", "madds")


def _targets() -> dict:
    """Original function object -> span name, for every traced function."""
    targets = {}
    for layer in LAYERS:
        module = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in NOT_TRACED
            ):
                targets[obj] = name
    return targets


class Tracer:
    """Collects the spans of the calls made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[str] = []
        self._ids = itertools.count()
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, str(next(self._ids)), self.stack[-1] if self.stack else None, 0.0, 0.0)
            self.stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def _replace(self, owner, key, new) -> None:
        if isinstance(owner, dict):
            old = owner[key]
            owner[key] = new
            self._undo.append(lambda: owner.__setitem__(key, old))
        else:
            old = vars(owner)[key]
            setattr(owner, key, new)
            self._undo.append(lambda: setattr(owner, key, old))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        targets = _targets()
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        modules = [m for n, m in sys.modules.items() if n.startswith(f"{PACKAGE}.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._replace(module, attr, wrappers[obj])
                elif isinstance(obj, dict):  # dispatch tables such as cli.COMMANDS
                    for key, value in list(obj.items()):
                        if isinstance(value, types.FunctionType) and value in wrappers:
                            self._replace(obj, key, wrappers[value])
        field_cls = sys.modules[f"{PACKAGE}.liddi"].LiddiField
        from_atom = vars(field_cls)["from_atom"]
        self._replace(field_cls, "from_atom",
                      classmethod(self._wrap(from_atom.__func__, "liddi.from_atom")))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def collect(self) -> list[Span]:
        """Return and forget the spans recorded since the last collect."""
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# Aggregation


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id -> duration minus the durations of its child spans.  The
    traced subcommands run in one thread, so the children of a span never
    overlap."""
    child_s: dict[str, float] = {}
    for span in spans:
        child_s[span.parent] = child_s.get(span.parent, 0.0) + span.end - span.start
    return {span.id: span.end - span.start - child_s.get(span.id, 0.0) for span in spans}


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Per span name: `self_s` and `calls` summed over the operation, and
    each recorded count as its largest value per call (`mass`: smallest)."""
    totals: dict[str, float] = {}
    selfs = self_times(spans)
    for span in spans:
        key = span.name
        totals[f"{key}.self_s"] = totals.get(f"{key}.self_s", 0.0) + selfs[span.id]
        totals[f"{key}.calls"] = totals.get(f"{key}.calls", 0) + 1
        for count, value in span.counts.items():
            name = f"{key}.{count}"
            pick = min if count == "mass" else max
            totals[name] = pick(totals[name], value) if name in totals else value
    return totals


def untraced(spans: list[Span], start: float, end: float) -> float:
    """Part of the operation's wall time that no top-level span covers."""
    return (end - start) - sum(s.end - s.start for s in spans if s.parent is None)
