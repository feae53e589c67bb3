"""Span tracing across the wclass-sim layers, installed from the outside.

``Tracer.install`` replaces, for the duration of a ``with`` block, the names
each module imports from the layer below (``cli -> montecarlo -> protocol ->
optics -> fock``) and a few methods with timing wrappers.  Nothing under
``src/`` is edited and the wrappers return what they wrap, so reports stay
byte-identical.  Spans are kept in memory as flat arrays (name id, start,
end, parent span, call id) and saved with ``numpy.savez_compressed``.

A span's self time is its duration minus its direct children's durations.
Work done in methods that are not wrapped (``FockState.items``, ``norm`` ...)
counts as self time of the caller.
"""

from __future__ import annotations

import array
import contextlib
import functools
import time
from pathlib import Path

import numpy as np

ENUMERATORS = ("protocol.connect_round", "protocol.merge_round", "protocol.teleport_round")
OUTCOME_ENUMERATORS = ("optics.loss_outcomes", "optics.detection_outcomes")
CLASSIFY = ("fock.classify.fidelity", "fock.classify.count_excitations")


def _targets(wc):
    """(owner, attribute, span name) for every wrapped callable."""
    cli, mc, proto, optics, fock = wc.cli, wc.montecarlo, wc.protocol, wc.optics, wc.fock
    out = [(cli, name, f"montecarlo.{name}") for name in
           ("run_batch", "run_epr_batch", "run_teleport_batch")]
    out.append((mc, "rng_for_trial", "montecarlo.rng_for_trial"))
    out += [(mc, name, f"protocol.{name}") for name in (
        "connect_round", "teleport", "receiver_localize", "teleport_target_state",
        "ideal_w_state", "epr_state", "make_chain_layout", "make_teleport_layout")]
    out += [(proto.ChainSimulator, name, f"protocol.ChainSimulator.{name}") for name in
            ("run_trial", "completion", "round_distribution")]
    out += [(proto, name, f"protocol.{name}") for name in
            ("connect_round", "merge_round", "teleport_round")]
    out += [(proto, name, f"optics.{name}") for name in (
        "pump_excite", "apply_beam_splitter", "apply_phase",
        "loss_outcomes", "detection_outcomes", "repump_convert")]
    out += [(proto, name, f"fock.{name}") for name in (
        "annihilate", "count_excitations", "create", "fidelity", "normalize", "superpose")]
    out += [(optics, name, f"fock.{name}") for name in ("normalize", "superpose", "create")]
    out += [(mc, "fidelity", "fock.classify.fidelity"),
            (mc, "count_excitations", "fock.classify.count_excitations")]
    out += [(mc, name, f"fock.{name}") for name in
            ("create", "inner_product", "normalize", "superpose")]
    out += [(fock.FockState, "__init__", "fock.FockState.__init__"),
            (fock.FockState, "key", "fock.FockState.key")]
    return out


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("i")
        self.call = array.array("i")
        self.call_id = 0
        self._stack: list[int] = []
        # counters that need a call's arguments or result
        self.terms_built = 0
        self.outcome_branches = 0
        self.round_branches = 0

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def wrap(self, fn, name: str, after=None):
        """``fn`` recorded as a span; ``after(args, result)`` updates counters."""
        nid = self._id(name)
        names, starts, ends, parents, calls = self.name, self.start, self.end, self.parent, self.call
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            calls.append(self.call_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_terms(self, args, result):
        self.terms_built += len(args[2])

    def _count_outcomes(self, args, result):
        self.outcome_branches += len(result)

    def _count_round(self, args, result):
        self.round_branches += len(result.branches)

    @contextlib.contextmanager
    def install(self, wc):
        """Wrap every target while the block runs; restore on exit."""
        saved = []
        try:
            for owner, attr, name in _targets(wc):
                original = owner.__dict__[attr]
                after = None
                if name == "fock.FockState.__init__":
                    after = self._count_terms
                elif name in OUTCOME_ENUMERATORS:
                    after = self._count_outcomes
                elif name in ENUMERATORS:
                    after = self._count_round
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def top_call(self, fn, name: str, *args):
        """Run ``fn(*args)`` as the root span of a new call id."""
        self.call_id += 1
        return self.wrap(fn, name)(*args)

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> dict:
        # copies, so the recorder's arrays stay growable
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int32),
            "call": np.array(self.call, dtype=np.int32),
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Per-name span counts, total time and self time (seconds)."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        n_names = len(tracer.names)
        dur = (a["end"] - a["start"]).astype(np.float64) * 1e-9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        self._ids = {n: i for i, n in enumerate(tracer.names)}
        self._count = np.bincount(a["name"], minlength=n_names)
        self._total = np.bincount(a["name"], weights=dur, minlength=n_names)
        self._self = np.bincount(a["name"], weights=self_time, minlength=n_names)
        # round_distribution spans with no enumerator child were memo hits
        enum_ids = [self._ids[n] for n in ENUMERATORS if n in self._ids]
        is_enum = np.isin(a["name"], enum_ids) & has_parent
        enum_children = np.bincount(a["parent"][is_enum], minlength=len(dur))
        rd = a["name"] == self._ids.get("protocol.ChainSimulator.round_distribution", -1)
        self.round_lookups = int(rd.sum())
        self.memo_hits = int((rd & (enum_children == 0)).sum())

    def count(self, *names: str) -> int:
        return int(sum(self._count[self._ids[n]] for n in names if n in self._ids))

    def total(self, *names: str) -> float:
        return float(sum(self._total[self._ids[n]] for n in names if n in self._ids))

    def self_time(self, *names: str) -> float:
        return float(sum(self._self[self._ids[n]] for n in names if n in self._ids))

    def layer_self_time(self, layer: str) -> float:
        return self.self_time(*(n for n in self._ids if n.startswith(layer + ".")))

    def layer_count(self, layer: str) -> int:
        return self.count(*(n for n in self._ids if n.startswith(layer + ".")))
