"""Layer spans for the traced run, recorded from outside the program.

The tracer wraps the public entry points of each layer at class level —
the scheduling and run calls of ``sim``, the sends of ``transport``, the
delay queries of ``topology``, the collector's intake in ``metrics``, the
runner's node callbacks and the oracle in ``overlay`` — plus the two
places where control crosses into the protocol: every callback the engine
fires (wrapped when it is scheduled, labelled by the module that owns it)
and the message handler each node registers with the network (labelled by
message class).

Time is charged with one clock read per boundary: entering a span charges
the time since the last boundary to the label that was running, and so
does leaving it.  A label's total is therefore its *self* time — its
spans' durations minus the child spans inside them.  Time outside every
span (the runner's own glue) stays unattributed.  A call into a layer from
inside the same layer opens no new span, so counts are boundary crossings.

Wrapping never changes arguments, return values, random draws or event
order; the benchmark checks that by comparing fingerprints with an
untraced run of the same seed.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.metrics.collector import StatsCollector
from repro.network.corpnet import CorpNetTopology
from repro.network.transit_stub import TransitStubTopology
from repro.network.transport import Network
from repro.overlay.oracle import Oracle
from repro.overlay.runner import OverlayRunner
from repro.pastry import messages
from repro.pastry.node import MSPastryNode
from repro.sim.engine import EventHandle, Simulator
from repro.sim.periodic import PeriodicTask

#: every concrete wire message type, in declaration order
WIRE_TYPES: List[str] = [
    name for name, obj in vars(messages).items()
    if isinstance(obj, type) and issubclass(obj, messages.Message)
    and obj is not messages.Message
]

LAYERS = ("sim", "transport", "topology", "pastry", "metrics", "overlay")

#: module prefix -> label of a callback the engine fires, longest first
_CALLBACK_LABELS = (
    ("repro.network.transport", "transport"),
    ("repro.network", "topology"),
    ("repro.sim", "sim"),
    ("repro.pastry", "pastry.timer"),
    ("repro.overlay", "overlay"),
    ("repro.metrics", "metrics"),
)

_TOPOLOGY_CLASSES = (TransitStubTopology, CorpNetTopology)


@functools.lru_cache(maxsize=None)
def _module_label(module: str) -> str:
    return next((label for prefix, label in _CALLBACK_LABELS
                 if module.startswith(prefix)), "other")


def _callback_label(callback: Callable) -> str:
    owner = getattr(callback, "__self__", None)
    module = (type(owner).__module__ if owner is not None
              else getattr(callback, "__module__", None)) or ""
    return _module_label(module)


class LayerTracer:
    """Per-label self time and boundary counts for one traced run."""

    def __init__(self) -> None:
        self.self_s: Dict[Optional[str], float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[Optional[str]] = []
        # [running label, time of the last boundary, send_many depth]
        self._state: List[Any] = [None, 0.0, 0]
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Span factories
    # ------------------------------------------------------------------
    def span(self, fn: Callable, label: str, key: Optional[str] = None,
             count_nested: bool = False) -> Callable:
        """``fn`` wrapped in a ``label`` span, bumping ``counts[key]``.

        The count is taken at boundary crossings only, unless
        ``count_nested`` (the engine's own calls are counted wherever they
        come from).
        """
        acc, counts, stack, state = self.self_s, self.counts, self._stack, self._state
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if state[0] == label:
                if count_nested and key is not None:
                    counts[key] += 1
                return fn(*args, **kwargs)
            if key is not None:
                counts[key] += 1
            now = clock()
            outer = state[0]
            acc[outer] += now - state[1]
            stack.append(outer)
            state[0] = label
            state[1] = now
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                acc[label] += now - state[1]
                state[0] = stack.pop()
                state[1] = now

        return wrapper

    def fired(self, callback: Callable) -> Callable:
        """A callback the engine will fire, labelled by its owner's layer."""
        label = _callback_label(callback)
        key = "pastry.timer.calls" if label == "pastry.timer" else None
        return self.span(callback, label, key)

    def dispatch(self, handler: Callable) -> Callable:
        """A node's registered message handler, labelled by message class."""
        spans: Dict[type, Callable] = {}

        def wrapper(src, msg):
            span = spans.get(msg.__class__)
            if span is None:
                label = f"pastry.dispatch.{msg.__class__.__name__}"
                span = spans[msg.__class__] = self.span(
                    handler, label, label + ".calls")
            return span(src, msg)

        return wrapper

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner: type, name: str, replacement: Callable) -> None:
        self._patches.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, replacement)

    def _wrap(self, owner: type, name: str, label: str,
              key: Optional[str] = None, count_nested: bool = False) -> None:
        self._patch(owner, name,
                    self.span(getattr(owner, name), label, key, count_nested))

    def install(self) -> None:
        """Wrap the layer entry points.  Must precede building the runner,
        because the network binds the engine's and topology's methods."""
        counts, state, fired = self.counts, self._state, self.fired

        # sim: scheduling (callbacks wrapped on the way in), cancels, run.
        def one(orig: Callable) -> Callable:
            def schedule(sim, delay, callback, *args):
                return orig(sim, delay, fired(callback), *args)
            return self.span(schedule, "sim", "sim.schedule_calls", True)

        for name in ("schedule", "schedule_at", "schedule_call"):
            self._patch(Simulator, name, one(getattr(Simulator, name)))

        orig_calls = Simulator.schedule_calls
        orig_calls_at = Simulator.schedule_calls_at

        def schedule_calls(sim, delays, callback, args_seq):
            counts["sim.batch_items"] += len(args_seq)
            return orig_calls(sim, delays, fired(callback), args_seq)

        def schedule_calls_at(sim, items):
            items = [(t, fired(cb), args) for t, cb, args in items]
            counts["sim.batch_items"] += len(items)
            return orig_calls_at(sim, items)

        self._patch(Simulator, "schedule_calls",
                    self.span(schedule_calls, "sim", "sim.batch_calls", True))
        self._patch(Simulator, "schedule_calls_at",
                    self.span(schedule_calls_at, "sim", "sim.batch_calls", True))
        self._wrap(EventHandle, "cancel", "sim", "sim.cancels", True)
        self._wrap(Simulator, "run", "sim")

        orig_init = PeriodicTask.__init__

        def periodic_init(task, sim, period, callback, **kwargs):
            orig_init(task, sim, period, fired(callback), **kwargs)

        self._patch(PeriodicTask, "__init__", periodic_init)

        # transport: scalar and batched sends, per wire type, and handlers.
        orig_send = Network.send
        orig_send_many = Network.send_many

        def send(net, src, dst, msg):
            if state[2] == 0:  # not the scalar fallback of a send_many
                counts["transport.sent." + msg.__class__.__name__] += 1
            return orig_send(net, src, dst, msg)

        def send_many(net, src, dsts, msgs):
            counts["transport.send_many_items"] += len(msgs)
            for msg in msgs:
                counts["transport.sent." + msg.__class__.__name__] += 1
            state[2] += 1
            try:
                return orig_send_many(net, src, dsts, msgs)
            finally:
                state[2] -= 1

        self._patch(Network, "send",
                    self.span(send, "transport", "transport.send_calls", True))
        self._patch(Network, "send_many", self.span(
            send_many, "transport", "transport.send_many_calls", True))
        orig_register = Network.register
        dispatch = self.dispatch

        def register(net, address, handler, owner=None):
            return orig_register(net, address, dispatch(handler), owner)

        self._patch(Network, "register", register)

        # topology: delay queries at the layer boundary.
        for cls in _TOPOLOGY_CLASSES:
            for name in ("delay", "delays_to", "proximity"):
                self._wrap(cls, name, "topology", f"topology.{name}_calls")

        # metrics: the collector's intake.
        for name in ("on_send", "on_loss", "on_lookup_issued",
                     "on_lookup_delivered", "on_lookup_dropped", "on_join",
                     "on_active_change", "finish"):
            self._wrap(StatsCollector, name, "metrics", "metrics.calls", True)

        # overlay: node lifecycle, the runner's node callbacks, the oracle.
        self._wrap(OverlayRunner, "_spawn", "overlay", "overlay.spawns", True)
        self._wrap(OverlayRunner, "_crash", "overlay", "overlay.crashes", True)
        for name in ("_on_active", "_on_deliver", "_on_drop",
                     "_on_lookup_issued", "_fresh_seed"):
            self._wrap(OverlayRunner, name, "overlay")
        self._wrap(Oracle, "is_correct_root", "overlay",
                   "overlay.oracle_checks", True)

        # pastry: the calls the overlay makes into a node.
        for name in ("__init__", "join", "crash", "make_lookup", "route_lookup"):
            self._wrap(MSPastryNode, name, "pastry.call")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Measuring
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.self_s.clear()
        self.counts.clear()
        self._stack.clear()
        self._state[0] = None
        self._state[2] = 0
        self._state[1] = time.perf_counter()

    def stop(self) -> None:
        now = time.perf_counter()
        self.self_s[self._state[0]] += now - self._state[1]
        self._state[1] = now

    def finish(self) -> Dict[str, Any]:
        """Self seconds per label (``unattributed`` for time outside every
        span) and the boundary counts, as plain JSON data."""
        return {
            "self_s": {label or "unattributed": seconds
                       for label, seconds in self.self_s.items()},
            "counts": dict(self.counts),
        }
