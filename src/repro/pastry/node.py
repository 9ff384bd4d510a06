"""MSPastry node: consistent and reliable overlay routing (paper Figure 2).

One instance is one overlay node.  The node is a state machine driven by
network messages and timers; there are no threads.  Life cycle::

    node = MSPastryNode(sim, network, config, node_id, rng)
    node.join(seed_descriptor)        # None -> bootstrap node
    ... becomes active after its leaf-set probes all agree ...
    node.lookup(key)                  # route a message to the key's root
    node.crash()                      # crash-stop: all state is lost

Dependability machinery (paper §3):

* join: the joining node routes a join request via a nearby seed, initialises
  its routing table from rows gathered along the route, then *probes every
  leaf-set member* and only becomes active once all probes agree — this is
  what makes routing consistent,
* failure detection: heartbeat to the left neighbour, silence monitoring of
  the right neighbour, active liveness probes of routing-table entries with
  a self-tuned period, all suppressible by regular traffic,
* reliable routing: per-hop acks, aggressive retransmission, temporary
  exclusion of suspects, eager leaf-set repair and lazy routing-table repair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Callable, ClassVar, Dict, List, Optional, Set

from repro.interfaces import Clock, TimerHandle, Transport
from repro.pastry import messages as m
from repro.pastry.acks import HopAckManager
from repro.pastry.config import PastryConfig
from repro.pastry.discovery import SeedDiscovery
from repro.pastry.leafset import LeafSet
from repro.pastry.nodeid import (
    ID_SPACE,
    NodeDescriptor,
    digit,
    intern_descriptor,
    is_closer_root,
    ring_distance,
    shared_prefix_length,
)
from repro.pastry.pns import ProximityManager
from repro.pastry.routingtable import RoutingTable
from repro.pastry.rto import RtoTable
from repro.pastry.selftuning import SelfTuner
from repro.sim.periodic import PeriodicTask

JOIN_RETRY_INTERVAL = 15.0
MAX_JOIN_ATTEMPTS = 5
REPAIR_PROBE_DELAY = 0.5
MAX_BUFFERED = 128
MAX_FAILED_REMEMBERED = 128

#: outgoing message types that carry the self-tuning period hint.  Exact
#: classes suffice: these are always instantiated directly by this module's
#: own send sites (the shipped message types are flat — see the dispatch
#: table note), so the frozenset test replaces a 5-way isinstance walk on
#: every send.
_TUNING_HINT_TYPES = frozenset(
    (m.LsProbe, m.LsProbeReply, m.Heartbeat, m.RtProbe, m.RtProbeReply)
)


@dataclass(slots=True)
class _ProbeState:
    desc: NodeDescriptor
    retries: int
    timer: Optional[TimerHandle]


class MSPastryNode:
    #: type -> (bound dispatch function, is_contact flag); populated after
    #: the class body from _DISPATCH_ORDER, extended lazily for subclasses.
    _DISPATCH: ClassVar[Dict[type, tuple]] = {}

    def __init__(
        self,
        sim: Clock,
        network: Transport,
        config: PastryConfig,
        node_id: int,
        rng: random.Random,
        on_active: Optional[Callable[["MSPastryNode"], None]] = None,
        on_deliver: Optional[Callable[["MSPastryNode", m.Lookup], None]] = None,
        on_drop: Optional[Callable[["MSPastryNode", m.Lookup], None]] = None,
        on_app_direct: Optional[Callable[["MSPastryNode", m.AppDirect], None]] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.config = config
        self.rng = rng
        self.addr = network.attach()
        self.descriptor = intern_descriptor(node_id, self.addr)
        #: plain attribute (== descriptor.id, never reassigned): the id is
        #: read millions of times per run and a property indirection was a
        #: measurable slice of the message hot path.
        self.id = node_id
        self.on_active = on_active
        self.on_deliver = on_deliver
        self.on_drop = on_drop
        self.on_app_direct = on_app_direct

        self.leaf_set = LeafSet(self.descriptor, config.leaf_set_size)
        self.routing_table = RoutingTable(self.descriptor, config.b)
        self.active = False
        self.crashed = False
        #: Byzantine behavior overlay (repro.adversary.ActiveAdversary) or
        #: None.  Consulted with a single is-None test per message — the
        #: disabled cost on the hot path (mirrors the transport's no-faults
        #: fast path): no RNG draws, no extra events, byte-identical runs.
        self.adversary = None
        self.joined_at: Optional[float] = None
        self.activated_at: Optional[float] = None

        self.failed: Dict[int, NodeDescriptor] = {}
        self.failed_at: Dict[int, float] = {}
        self._failed_backoff: Dict[int, float] = {}
        self.suspected: Set[int] = set()
        self.probing: Dict[int, _ProbeState] = {}
        self._rt_probing: Dict[int, _ProbeState] = {}
        self.last_heard: Dict[int, float] = {}
        self.last_sent: Dict[int, float] = {}
        #: completed LS-probe exchanges, for candidate-probe suppression
        self._ls_heard: Dict[int, float] = {}
        # The three maps above are only ever *read* through strict recency
        # comparisons (`t > now - horizon`), so an entry older than the
        # largest horizon a reader can use is indistinguishable from an
        # absent one and can be dropped.  Long-lived nodes would otherwise
        # remember a timestamp for every peer they ever exchanged a message
        # with — the dominant per-node memory cost at paper scale.  Pruning
        # is amortized on insert (cap doubles when a sweep frees nothing),
        # touches no RNG and schedules no events, so the event stream and
        # every protocol decision are byte-identical.
        probe_cycle = (config.max_probe_retries + 1) * config.probe_timeout
        self._probe_cycle = probe_cycle
        self._heard_horizon = max(
            config.state_sweep_period,  # _rt_scan suppression (<= this)
            config.heartbeat_period + config.probe_timeout,  # _monitor_tick
            probe_cycle,  # failure-claim contradiction window
        )
        self._sent_horizon = config.heartbeat_period  # _heartbeat_to
        self._ls_heard_horizon = config.candidate_probe_suppression
        self._heard_cap = 128
        self._sent_cap = 128
        self._ls_heard_cap = 128

        self.rto_table = RtoTable(
            config.rto_initial,
            config.rto_min,
            config.rto_max,
            variance_weight=config.rto_variance_weight,
        )
        self.tuner = SelfTuner(config)
        self.prox = ProximityManager(self)
        # Routing-table proximity function, resolved once: config.pns and
        # the ProximityManager are fixed for the node's lifetime.
        self._rt_proximity = self.prox.proximity if config.pns else None
        # _advertised_failed memo: valid while the failure maps are unmutated
        # (version check) and no advertised entry has aged past the memory
        # horizon (expiry check).
        self._failed_version = 0
        self._adv_failed_cache: List[NodeDescriptor] = []
        self._adv_failed_version = -1
        self._adv_failed_expiry = 0.0
        self.acks = HopAckManager(
            sim,
            self.rto_table,
            config.max_reroutes,
            reroute=self._reroute_lookup,
            suspect=self.suspect,
            on_drop=self._lookup_dropped,
            same_hop_retransmits=config.same_hop_retransmits,
            resend=self._resend_lookup,
            probe=self.probe,
        )

        self._buffered: List[m.Message] = []
        self._lookup_seq = 0
        self._tasks: List[PeriodicTask] = []
        self._timers: List[TimerHandle] = []
        self._discovery: Optional[SeedDiscovery] = None
        self._join_seed: Optional[NodeDescriptor] = None
        self._seed_provider: Optional[Callable[[], Optional[NodeDescriptor]]] = None
        self._join_attempts = 0
        self._join_timer: Optional[TimerHandle] = None
        self._monitored_id: Optional[int] = None
        self._monitor_since = 0.0
        tuned = (
            config.rt_probe_period_max if config.self_tuning else config.rt_probe_period
        )
        self._rt_period = min(tuned, config.state_sweep_period)
        self._rt_scan_handle: Optional[TimerHandle] = None
        self._last_rt_scan = 0.0
        self._refill_version = -1
        self._deferred: Dict[int, List[m.Lookup]] = {}
        self._deferred_ids: Set[int] = set()

        network.register(self.addr, self._on_message, owner=self)

    # ------------------------------------------------------------------
    # Identity helpers
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else ("active" if self.active else "joining")
        return f"MSPastryNode({self.id:08x}.., {state})"

    def routing_state_members(self) -> List[NodeDescriptor]:
        """Unique descriptors across routing table and leaf set."""
        seen: Dict[int, NodeDescriptor] = {}
        for desc in chain(self.routing_table.entries(), self.leaf_set.members()):
            seen[desc.id] = desc
        return list(seen.values())

    def is_failed(self, node_id: int) -> bool:
        return node_id in self.failed

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, dest: NodeDescriptor, msg: m.Message) -> None:
        msg.sender = self.descriptor
        if self.config.self_tuning and msg.__class__ in _TUNING_HINT_TYPES:
            msg.tuning_hint = self.tuner.local_period
        self.last_sent[dest.id] = self.sim.now
        if len(self.last_sent) >= self._sent_cap:
            self.last_sent, self._sent_cap = self._pruned_recency(
                self.last_sent, self._sent_horizon)
        self.network.send(self.addr, dest.addr, msg)

    def _send_all(self, dests: List[NodeDescriptor], msgs: List[m.Message]) -> None:
        """Batched :meth:`send`: ``msgs[i]`` goes to ``dests[i]``.

        Per-message bookkeeping (sender stamp, tuning hint, recency) runs
        in list order exactly as the equivalent send() loop would, then the
        whole burst is enqueued through the transport's batch path.  The
        recency-cap sweep runs once after the burst instead of after every
        insert — the sweep is protocol-invisible (it only drops entries no
        reader can distinguish from absent ones, and the map is never
        iterated for protocol decisions), so moving it does not change any
        observable behaviour.
        """
        descriptor = self.descriptor
        tuning = self.config.self_tuning
        local_period = self.tuner.local_period
        now = self.sim.now
        last_sent = self.last_sent
        for dest, msg in zip(dests, msgs):
            msg.sender = descriptor
            if tuning and msg.__class__ in _TUNING_HINT_TYPES:
                msg.tuning_hint = local_period
            last_sent[dest.id] = now
        if len(last_sent) >= self._sent_cap:
            self.last_sent, self._sent_cap = self._pruned_recency(
                last_sent, self._sent_horizon)
        self.network.send_many(
            self.addr, [dest.addr for dest in dests], msgs
        )

    def _pruned_recency(
        self, table: Dict[int, float], horizon: float
    ) -> "tuple[Dict[int, float], int]":
        """Drop entries no reader can distinguish from absent ones.

        Sweeps in place: deleting dead keys leaves the survivors in the
        same relative order a filtered rebuild would produce, without
        copying the (mostly surviving) bulk of the table every sweep.
        """
        cutoff = self.sim.now - horizon
        dead = [k for k, v in table.items() if v <= cutoff]
        for k in dead:
            del table[k]
        return table, max(128, 2 * len(table))

    # ------------------------------------------------------------------
    # Join (paper §2 and Figure 2)
    # ------------------------------------------------------------------
    def join(
        self,
        seed: Optional[NodeDescriptor],
        seed_provider: Optional[Callable[[], Optional[NodeDescriptor]]] = None,
    ) -> None:
        """Join the overlay via ``seed`` (None bootstraps a new overlay)."""
        self.joined_at = self.sim.now
        self.tuner.failures.start(self.sim.now)
        self._seed_provider = seed_provider
        if seed is None:
            self._activate()
            return
        self._join_seed = seed
        if self.config.pns and self.config.nearest_neighbour_join:
            self._discovery = SeedDiscovery(self, seed, self._discovered_seed)
            self._discovery.start()
        else:
            self._send_join(seed)

    def _discovered_seed(self, seed: NodeDescriptor) -> None:
        if self.crashed or self.active:
            return
        self._discovery = None
        self._send_join(seed)

    def _send_join(self, seed: NodeDescriptor) -> None:
        self._join_attempts += 1
        self._lookup_seq += 1
        msg_id = (self.addr << 24) | (self._lookup_seq & 0xFFFFFF)
        self.send(seed, m.JoinRequest(msg_id=msg_id, joiner=self.descriptor))
        self._join_timer = self.sim.schedule(JOIN_RETRY_INTERVAL, self._join_retry)

    def _join_retry(self) -> None:
        if self.crashed or self.active:
            return
        if self._join_attempts >= MAX_JOIN_ATTEMPTS:
            return  # gives up; stays inactive (dies with high churn, §5.3)
        seed = self._join_seed
        if self._seed_provider is not None:
            fresh = self._seed_provider()
            if fresh is not None and fresh.id != self.id:
                seed = fresh
        if seed is not None:
            self._send_join(seed)

    def _on_join_request(self, msg: m.JoinRequest) -> None:
        # Figure 2: R.add(Ri) — contribute our routing table rows en route.
        for row in self.routing_table.occupied_rows():
            msg.rows.setdefault(row, []).extend(self.routing_table.row_entries(row))
        # The joiner may already be known (distance reports, gossip) but it
        # is not active: never route its own join request to it.
        excluded = frozenset({msg.joiner.id})
        next_hop = self._next_hop(msg.joiner.id, excluded)
        # §3.2 applied to joins: ack the previous hop only when we can make
        # progress (forward, or reply as the active root).  A mid-join node
        # that would merely buffer the request stays silent, so the sender
        # reroutes around it instead of feeding a blackhole.
        if (
            self.config.per_hop_acks
            and msg.msg_id
            and msg.sender is not None
            and (next_hop is not None or self.active)
        ):
            self.send(msg.sender, m.Ack(msg_id=msg.msg_id))
        if next_hop is None:
            self._receive_root(msg, msg.joiner.id)
        else:
            self._forward(msg, next_hop)

    def _join_request_at_root(self, msg: m.JoinRequest) -> None:
        if not self.active:
            self._buffer(msg)
            return
        reply = m.JoinReply(
            rows=msg.rows,
            leaf_set=self.leaf_set.members() + [self.descriptor],
        )
        self.send(msg.joiner, reply)

    def _on_join_reply(self, msg: m.JoinReply) -> None:
        if self.crashed or self.active:
            return
        if self._join_timer is not None:
            self._join_timer.cancel()
        proximity = self.prox.proximity if self.config.pns else None
        for entries in msg.rows.values():
            for desc in entries:
                if desc.id != self.id:
                    self.routing_table.add(desc, proximity)
        for desc in msg.leaf_set:
            if desc.id != self.id:
                self.routing_table.add(desc, proximity)
                self.leaf_set.add(desc)
        self._probe_all(self.leaf_set.members())
        if not self.probing:
            # Joined an overlay consisting solely of the (empty-leaf-set)
            # root: probe the root itself so it learns about us.
            if msg.sender is not None:
                self.probe(msg.sender)

    # ------------------------------------------------------------------
    # Leaf-set probing: the consistency core (Figure 2)
    # ------------------------------------------------------------------
    def probe(self, desc: NodeDescriptor) -> None:
        if desc.id == self.id or desc.id in self.probing or desc.id in self.failed:
            return
        state = _ProbeState(desc=desc, retries=0, timer=None)
        self.probing[desc.id] = state
        self._send_ls_probe(desc, state)

    def _probe_all(self, descs: List[NodeDescriptor]) -> None:
        """Batched :meth:`probe` over a burst of candidates.

        Applies the same vetoes per candidate, arms every probe timer, then
        hands the whole LsProbe burst to the transport in one batch call.
        Relative event order within each same-timestamp group is unchanged
        (all timers fire at now + probe_timeout and keep their list order;
        deliveries keep theirs), and the probe payload is computed once —
        valid because nothing in the loop mutates the leaf set or the
        failure maps.
        """
        my_id = self.id
        probing = self.probing
        failed = self.failed
        timeout = self.config.probe_timeout
        schedule = self.sim.schedule
        probe_timeout = self._probe_timeout
        targets: List[NodeDescriptor] = []
        for desc in descs:
            did = desc.id
            if did == my_id or did in probing or did in failed:
                continue
            state = _ProbeState(desc=desc, retries=0, timer=None)
            probing[did] = state
            state.timer = schedule(timeout, probe_timeout, did)
            targets.append(desc)
        if not targets:
            return
        leaf_set = self.leaf_set.members()
        advertised = self._advertised_failed()
        self._send_all(
            targets,
            [
                m.LsProbe(leaf_set=leaf_set, failed=advertised)
                for _ in targets
            ],
        )

    def _send_ls_probe(self, desc: NodeDescriptor, state: _ProbeState) -> None:
        state.timer = self.sim.schedule(
            self.config.probe_timeout, self._probe_timeout, desc.id
        )
        self.send(
            desc,
            m.LsProbe(
                leaf_set=self.leaf_set.members(),
                failed=self._advertised_failed(),
            ),
        )

    def _advertised_failed(self) -> list:
        """Failure claims worth announcing: entries younger than the memory.

        An old entry is stale news — everyone in range heard the claim when
        it was fresh, and re-broadcasting it for the whole (backed-off)
        retry interval makes every receiver that still lists the node
        re-verify it on each exchange, which under membership flapping
        amplifies into a probe storm.
        """
        now = self.sim.now
        if (
            self._adv_failed_version == self._failed_version
            and now < self._adv_failed_expiry
        ):
            # Memo hit: the failure maps have not been touched and no
            # advertised entry crossed the horizon yet.  A fresh copy is
            # returned so callers (messages in flight) never alias.
            return list(self._adv_failed_cache)
        memory = self.config.failed_memory
        horizon = now - memory
        failed_at = self.failed_at
        advertised = []
        next_expiry = float("inf")
        for node_id, desc in self.failed.items():
            at = failed_at.get(node_id, -1e18)
            if at >= horizon:
                advertised.append(desc)
                expiry = at + memory
                if expiry < next_expiry:
                    next_expiry = expiry
        self._adv_failed_cache = advertised
        self._adv_failed_version = self._failed_version
        self._adv_failed_expiry = next_expiry
        return list(advertised)

    def _probe_timeout(self, node_id: int) -> None:
        if self.crashed:
            return
        state = self.probing.get(node_id)
        if state is None:
            return
        if state.retries < self.config.max_probe_retries:
            state.retries += 1
            self._send_ls_probe(state.desc, state)
            return
        self._mark_faulty(state.desc)
        self.done_probing(node_id)

    def _mark_faulty(self, desc: NodeDescriptor) -> None:
        """Remove a confirmed-dead node from all routing state (Figure 2)."""
        was_leaf = desc.id in self.leaf_set
        self.leaf_set.remove(desc.id)
        self.routing_table.remove(desc.id)
        self.suspected.discard(desc.id)
        self._failed_version += 1
        if len(self.failed) >= MAX_FAILED_REMEMBERED:
            # Evict a non-leaf-relevant entry if one exists: a remembered
            # failure that still belongs in the leaf set is the expiry
            # retry's only path back to an expelled-but-recovered ring
            # neighbour, and silently dropping it orphans that neighbour
            # for good (nobody else holds a reference to probe).
            evicted = next(
                (
                    fid
                    for fid, fdesc in self.failed.items()
                    if not self.leaf_set.would_admit(fdesc)
                ),
                None,
            )
            if evicted is None:
                evicted = next(iter(self.failed))
            else:
                self._failed_backoff.pop(evicted, None)
            self.failed.pop(evicted)
            self.failed_at.pop(evicted, None)
        self.failed[desc.id] = desc
        self.failed_at[desc.id] = self.sim.now
        # Exponential re-probe backoff (see _retry_failed): a node failing
        # again straight after an expiry retry waits twice as long next time.
        fresh = desc.id not in self._failed_backoff
        self._failed_backoff[desc.id] = min(
            2.0 * self._failed_backoff.get(desc.id, self.config.failed_memory / 2.0),
            self.config.failed_backoff_max,
        )
        self.tuner.forget_peer(desc.id)
        if fresh:
            # Expiry re-probes of the same remembered corpse are
            # re-observations, not new failures: recording them would
            # inflate the self-tuning failure-rate estimate.
            self.tuner.failures.record_failure(self.sim.now)
        self.prox.forget(desc.id)
        self.last_heard.pop(desc.id, None)
        self._ls_heard.pop(desc.id, None)
        if self._deferred and desc.id in self._deferred:
            self._flush_deferred_for(desc.id)
        if was_leaf and self.active:
            # §4.1: announce the failure to the other leaf-set members; their
            # replies double as repair candidates.
            self._probe_all(self.leaf_set.members())

    def _forget_failure(self, node_id: int) -> None:
        """The node proved itself alive: drop all failure memory for it."""
        if self.failed.pop(node_id, None) is not None:
            self._failed_version += 1
        self.failed_at.pop(node_id, None)
        self._failed_backoff.pop(node_id, None)

    def _clear_failed(self) -> None:
        # A complete leaf set makes most failure memory stale, but entries
        # that would still be admitted are the ring's own neighbourhood:
        # they survive the clear so the expiry retry (_retry_failed) can
        # reach an expelled-but-recovered neighbour that no longer appears
        # in anyone's routing state.  Backoffs survive in full on purpose:
        # a flapping gray node must not get its retry cadence reset every
        # time the leaf set completes.
        stale = [
            fid
            for fid, fdesc in self.failed.items()
            if not self.leaf_set.would_admit(fdesc)
        ]
        if stale:
            self._failed_version += 1
        for node_id in stale:
            self.failed.pop(node_id, None)
            self.failed_at.pop(node_id, None)

    def _retry_failed(self) -> None:
        """Expire failure memory (PastryConfig.failed_memory).

        Under crash-stop an eternal failed set is harmless, but a gray node
        (receive-only or out-lossy for a while) ends up expelled everywhere
        with *everyone* in its own failed set — and since probes are vetoed
        by that set, two such nodes can lock into a mutually consistent
        islet no outside traffic ever reaches.  Expiry is the escape hatch:
        a remembered failure older than its backoff is dropped, and
        re-probed once if it still belongs in the leaf set.
        """
        if not self.failed:
            return
        now = self.sim.now
        base = self.config.failed_memory
        expired = [
            node_id
            for node_id, since in self.failed_at.items()
            if now - since >= self._failed_backoff.get(node_id, base)
        ]
        if expired:
            self._failed_version += 1
        for node_id in expired:
            desc = self.failed.pop(node_id, None)
            self.failed_at.pop(node_id, None)
            if desc is None:
                continue
            if self.leaf_set.would_admit(desc):
                self.probe(desc)
            else:
                # No longer leaf-relevant: forget it entirely so the
                # backoff table cannot grow without bound.
                self._failed_backoff.pop(node_id, None)

    def done_probing(self, node_id: int) -> None:
        state = self.probing.pop(node_id, None)
        if state is not None and state.timer is not None:
            state.timer.cancel()
        if self.probing:
            return
        if self.leaf_set.complete:
            self._clear_failed()
            if not self.active:
                self._activate()
            else:
                self._flush_buffered()
            self._refill_if_thin()
        else:
            self._repair_leaf_set()

    def _handle_ls_info(self, sender: NodeDescriptor, msg) -> None:
        """Common processing of LS-PROBE and LS-PROBE-REPLY (Figure 2)."""
        now = self.sim.now
        leaf_set = self.leaf_set
        my_id = self.id
        sender_id = sender.id
        if (
            sender_id in self.failed
            or sender_id in self.failed_at
            or sender_id in self._failed_backoff
        ):
            self._forget_failure(sender_id)
        self._ls_heard[sender_id] = now
        if len(self._ls_heard) >= self._ls_heard_cap:
            self._ls_heard, self._ls_heard_cap = self._pruned_recency(
                self._ls_heard, self._ls_heard_horizon)
        leaf_set.add(sender)
        self.consider_for_routing_table(sender)
        # Verify claimed failures of our own leaf-set members ourselves: the
        # member stays until our probe fails (a false claim must not evict a
        # live neighbour), and a claim contradicted by fresher direct
        # evidence — we heard from the node within one probe cycle — is
        # ignored outright.
        probe_cycle = self._probe_cycle
        members = leaf_set._members
        for desc in msg.failed:
            if desc.id == my_id:
                continue
            claimed = members.get(desc.id)
            if claimed is not None:
                if self.last_heard.get(desc.id, -1e18) > now - probe_cycle:
                    continue
                self.probe(claimed)
        # Candidates from the sender's leaf set, probed before inclusion.
        # Suppression: a candidate we exchanged leaf sets with in the last
        # few seconds told us everything a fresh probe would; re-probing it
        # every time a neighbour mentions it turns membership flapping
        # (gray failures, partition heal) into a ring-wide probe storm.
        # Never suppress while joining or mid-repair: an ignored candidate
        # offer is not revisited, and a stalled repair can outlast a
        # joiner's retry budget.
        suppress = (
            self.config.candidate_probe_suppression
            if self.config.probe_suppression
            and self.active
            and leaf_set.complete
            else 0.0
        )
        horizon = now - suppress
        failed = self.failed
        ls_heard = self._ls_heard
        # Inline leaf_set.would_admit against bounds hoisted out of the
        # loop: the owner/member vetoes are already covered by the my_id
        # and membership checks above, and nothing in the loop body mutates
        # the ring (probe() only arms a timer and sends), so the admission
        # window is loop-invariant.  Same comparisons as would_admit,
        # candidate for candidate.
        ring_keys = leaf_set._ring_keys
        n = len(ring_keys)
        half = leaf_set._half
        bounded = n >= half
        if bounded:
            lo = ring_keys[half - 1]
            hi = ring_keys[n - half]
        probe = self.probe
        for desc in msg.leaf_set:
            did = desc.id
            # Membership first: in a stable ring most offered candidates
            # are already members, and these vetoes are order-independent
            # pure filters.
            if did in members or did == my_id or did in failed:
                continue
            if suppress and ls_heard.get(did, -1e18) > horizon:
                continue
            if bounded:
                cw = (did - my_id) % ID_SPACE
                if lo <= cw <= hi:
                    continue
            probe(desc)

    def _on_ls_probe(self, sender: NodeDescriptor, msg: m.LsProbe) -> None:
        self._handle_ls_info(sender, msg)
        self.send(
            sender,
            m.LsProbeReply(
                leaf_set=self.leaf_set.members(),
                failed=self._advertised_failed(),
            ),
        )

    def _on_ls_probe_reply(self, sender: NodeDescriptor, msg: m.LsProbeReply) -> None:
        self._handle_ls_info(sender, msg)
        if sender.id in self.probing:
            self.done_probing(sender.id)

    def suspect(self, desc: NodeDescriptor) -> None:
        """SUSPECT-FAULTY: exclude from routing until a probe resolves it."""
        if desc.id == self.id or desc.id in self.failed:
            return
        self.suspected.add(desc.id)
        self.probe(desc)

    # ------------------------------------------------------------------
    # Leaf-set repair (§3.1)
    # ------------------------------------------------------------------
    def _repair_leaf_set(self) -> None:
        half = self.config.leaf_set_size // 2
        left, right = self.leaf_set.left_side, self.leaf_set.right_side
        if left and len(left) < half:
            self._schedule_repair_probe(self.leaf_set.leftmost)
        if right and len(right) < half:
            self._schedule_repair_probe(self.leaf_set.rightmost)
        if not left or not right:
            self._generalized_repair(missing_left=not left, missing_right=not right)

    def _refill_if_thin(self) -> None:
        """Re-probe the leaf-set extremes after losses in a large ring.

        A leaf set that knows fewer than ``l`` members cannot tell a small
        overlay from one it is mid-repair in (see LeafSet.wrapped).  When it
        still knows at least l/2 members — a strong hint the ring is large —
        the extremes are probed so their leaf sets refill ours.  Guarded by
        the leaf-set version so a drained probe round with no new members
        terminates instead of ping-ponging.
        """
        leaf_set = self.leaf_set
        if not leaf_set.wrapped() or len(leaf_set) < self.config.leaf_set_size // 2:
            return
        if leaf_set.version == self._refill_version:
            return
        self._refill_version = leaf_set.version
        if leaf_set.leftmost is not None:
            self._schedule_repair_probe(leaf_set.leftmost)
        if leaf_set.rightmost is not None:
            self._schedule_repair_probe(leaf_set.rightmost)

    def _schedule_repair_probe(self, desc: NodeDescriptor) -> None:
        if len(self._timers) > 64:
            self._timers = [h for h in self._timers if h.active]
        handle = self.sim.schedule(REPAIR_PROBE_DELAY, self._repair_probe, desc)
        self._timers.append(handle)

    def _repair_probe(self, desc: NodeDescriptor) -> None:
        if self.crashed or desc.id in self.failed:
            return
        self.probe(desc)

    def _generalized_repair(self, missing_left: bool, missing_right: bool) -> None:
        """Use the routing table to rebuild an empty leaf-set side (§3.1)."""
        candidates = self.routing_state_members()
        if not candidates:
            return  # isolated: nothing we can do
        if missing_right:
            target = min(
                candidates, key=lambda d: (d.id - self.id) % (1 << 128)
            )
            self.send(target, m.LeafSetRequest(key=self.id))
        if missing_left:
            target = min(
                candidates, key=lambda d: (self.id - d.id) % (1 << 128)
            )
            self.send(target, m.LeafSetRequest(key=self.id))

    def _on_leafset_request(self, sender: NodeDescriptor, msg: m.LeafSetRequest) -> None:
        pool = self.routing_state_members() + [self.descriptor]
        pool = [d for d in pool if d.id != sender.id]
        pool.sort(key=lambda d: ring_distance(d.id, msg.key))
        self.send(
            sender,
            m.LeafSetReply(key=msg.key, nodes=pool[: self.config.leaf_set_size + 1]),
        )

    def _on_leafset_reply(self, sender: NodeDescriptor, msg: m.LeafSetReply) -> None:
        for desc in msg.nodes:
            if desc.id == self.id or desc.id in self.failed:
                continue
            if self.leaf_set.would_admit(desc):
                self.probe(desc)

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    def _activate(self) -> None:
        if self.active or self.crashed:
            return
        self.active = True
        self.activated_at = self.sim.now
        self._clear_failed()
        if self._join_timer is not None:
            self._join_timer.cancel()
        # Notify before flushing buffered traffic: the node is the root of
        # its key range from this instant on.
        if self.on_active is not None:
            self.on_active(self)
        config = self.config
        self._tasks.append(
            PeriodicTask(self.sim, config.heartbeat_period, self._heartbeat_tick,
                         start_delay=self.rng.uniform(0, config.heartbeat_period))
        )
        self._tasks.append(
            PeriodicTask(self.sim, config.heartbeat_period, self._monitor_tick,
                         start_delay=self.rng.uniform(0, config.heartbeat_period))
        )
        if config.self_tuning:
            self._tasks.append(
                PeriodicTask(self.sim, config.self_tuning_interval, self._tune_tick,
                             start_delay=self.rng.uniform(0, config.self_tuning_interval))
            )
        if config.pns:
            self._tasks.append(
                PeriodicTask(self.sim, config.rt_maintenance_period,
                             self._maintenance_tick,
                             start_delay=self.rng.uniform(
                                 0.5 * config.rt_maintenance_period,
                                 1.5 * config.rt_maintenance_period))
            )
        if config.active_rt_probing:
            self._schedule_rt_scan(self.rng.uniform(0, self._rt_period))
        if config.pns and len(self.routing_table) > 0:
            self.prox.probe_routing_state()
            self.prox.announce_rows()
        self._flush_buffered()

    # ------------------------------------------------------------------
    # Failure detection timers (§4.1)
    # ------------------------------------------------------------------
    def _heartbeat_tick(self) -> None:
        # Opportunistic sweep of the recency maps: the insert-time sweeps
        # double their cap under probe bursts (a joining node contacts its
        # whole routing state within one suppression window), and without
        # further inserts the bloated table would persist.  Piggybacking on
        # an existing timer keeps the event stream untouched.
        if len(self.last_sent) >= 128:
            self.last_sent, self._sent_cap = self._pruned_recency(
                self.last_sent, self._sent_horizon)
        if len(self._ls_heard) >= 128:
            self._ls_heard, self._ls_heard_cap = self._pruned_recency(
                self._ls_heard, self._ls_heard_horizon)
        if len(self.last_heard) >= 128:
            self.last_heard, self._heard_cap = self._pruned_recency(
                self.last_heard, self._heard_horizon)
        self._retry_failed()
        if self.config.heartbeat_all_leafset:
            # Ablation baseline: heartbeat every member (cost grows with l).
            # Batched: suppression reads last_sent before any send in the
            # round, which matches the scalar loop because the member ids
            # are distinct — no send in the round can affect another
            # member's suppression check.
            if self.config.probe_suppression:
                cutoff = self.sim.now - self.config.heartbeat_period
                last_sent = self.last_sent
                targets = [
                    member
                    for member in self.leaf_set.members()
                    if last_sent.get(member.id, -1e18) <= cutoff
                ]
            else:
                targets = self.leaf_set.members()
            if targets:
                self._send_all(targets, [m.Heartbeat() for _ in targets])
            return
        left = self.leaf_set.left_neighbour
        if left is not None:
            self._heartbeat_to(left)

    def _heartbeat_to(self, target: NodeDescriptor) -> None:
        if (
            self.config.probe_suppression
            and self.last_sent.get(target.id, -1e18)
            > self.sim.now - self.config.heartbeat_period
        ):
            return
        self.send(target, m.Heartbeat())

    def _monitor_tick(self) -> None:
        right = self.leaf_set.right_neighbour
        if right is None:
            return
        if right.id != self._monitored_id:
            self._monitored_id = right.id
            self._monitor_since = self.sim.now
            return
        deadline = self.config.heartbeat_period + self.config.probe_timeout
        heard = max(self.last_heard.get(right.id, 0.0), self._monitor_since)
        if heard < self.sim.now - deadline:
            self.suspected.discard(right.id)  # not a routing suspect, just silent
            self.probe(right)

    def _on_heartbeat(self, sender: NodeDescriptor) -> None:
        """A heartbeat is a direct liveness proof: recover false positives.

        A node removed on a probe false positive (likely under link loss)
        keeps heart-beating its left neighbour; seeing the heartbeat we drop
        it from the failed set and re-probe it so it can rejoin the leaf set
        — this is the fast recovery from consistency violations (§3.1).
        """
        if sender.id in self.failed:
            self._forget_failure(sender.id)
            self.probe(sender)
        elif sender.id not in self.leaf_set and self.leaf_set.would_admit(sender):
            self.probe(sender)

    def _tune_tick(self) -> None:
        members = len(self.routing_state_members())
        self.tuner.recompute_local(self.sim.now, self.leaf_set, members)
        period = min(self.tuner.current_period(), self.config.state_sweep_period)
        if period != self._rt_period:
            self._rt_period = period
            self._maybe_advance_rt_scan()

    def _maintenance_tick(self) -> None:
        self.prox.run_maintenance()

    def _schedule_rt_scan(self, delay: float) -> None:
        self._rt_scan_handle = self.sim.schedule(delay, self._rt_scan)

    def _maybe_advance_rt_scan(self) -> None:
        handle = self._rt_scan_handle
        if handle is None or not handle.active:
            return
        desired = max(self.sim.now, self._last_rt_scan + self._rt_period)
        if desired < handle.time:
            handle.cancel()
            self._schedule_rt_scan(desired - self.sim.now)

    def _rt_scan(self) -> None:
        if self.crashed:
            return
        self._last_rt_scan = self.sim.now
        horizon = self.sim.now - self._rt_period
        # Probe the whole routing state (§3.2): routing-table entries plus
        # leaf-set members.  Heartbeats cover the immediate neighbours every
        # Tls; this much slower sweep catches dead members farther along the
        # sides that no failure announcement reached.  The sweep is batched:
        # vetoes run per candidate (ids are unique, so arming one probe
        # cannot affect another's veto), every timer is armed, then the
        # whole RtProbe burst goes out in one transport call.
        probing = self.probing
        rt_probing = self._rt_probing
        failed = self.failed
        suppression = self.config.probe_suppression
        last_heard = self.last_heard
        timeout = self.config.probe_timeout
        schedule = self.sim.schedule
        rt_probe_timeout = self._rt_probe_timeout
        targets: List[NodeDescriptor] = []
        for desc in self.routing_state_members():
            did = desc.id
            if did in probing or did in rt_probing:
                continue
            if did in failed:
                continue
            if suppression and last_heard.get(did, -1e18) > horizon:
                continue
            state = _ProbeState(desc=desc, retries=0, timer=None)
            rt_probing[did] = state
            state.timer = schedule(timeout, rt_probe_timeout, did)
            targets.append(desc)
        if targets:
            self._send_all(targets, [m.RtProbe() for _ in targets])
        self._schedule_rt_scan(self._rt_period)

    def _send_rt_probe(self, desc: NodeDescriptor) -> None:
        state = _ProbeState(desc=desc, retries=0, timer=None)
        self._rt_probing[desc.id] = state
        self._dispatch_rt_probe(desc, state)

    def _dispatch_rt_probe(self, desc: NodeDescriptor, state: _ProbeState) -> None:
        state.timer = self.sim.schedule(
            self.config.probe_timeout, self._rt_probe_timeout, desc.id
        )
        self.send(desc, m.RtProbe())

    def _rt_probe_timeout(self, node_id: int) -> None:
        if self.crashed:
            return
        state = self._rt_probing.get(node_id)
        if state is None:
            return
        if state.retries < self.config.max_probe_retries:
            state.retries += 1
            self._dispatch_rt_probe(state.desc, state)
            return
        del self._rt_probing[node_id]
        self._mark_faulty(state.desc)

    def _on_rt_probe_reply(self, sender: NodeDescriptor) -> None:
        state = self._rt_probing.pop(sender.id, None)
        if state is not None and state.timer is not None:
            state.timer.cancel()

    # ------------------------------------------------------------------
    # Routing (Figure 2, routei)
    # ------------------------------------------------------------------
    def make_lookup(self, key: int, payload: object = None,
                    wants_acks: Optional[bool] = None) -> m.Lookup:
        """Create (but do not route) a lookup message originating here."""
        self._lookup_seq += 1
        return m.Lookup(
            msg_id=(self.addr << 24) | (self._lookup_seq & 0xFFFFFF),
            key=key,
            source=self.descriptor,
            sent_at=self.sim.now,
            payload=payload,
            wants_acks=self.config.per_hop_acks if wants_acks is None else wants_acks,
        )

    def route_lookup(self, msg: m.Lookup) -> None:
        """Route a lookup created with :meth:`make_lookup`."""
        self._route(msg, msg.key)

    def lookup(self, key: int, payload: object = None,
               wants_acks: Optional[bool] = None) -> m.Lookup:
        """Originate a lookup; returns the message (its id tracks delivery).

        Note: when the local node is itself the key's root the delivery
        happens synchronously inside this call.  Callers that need to
        observe the delivery must use :meth:`make_lookup`, register their
        bookkeeping, then :meth:`route_lookup`.
        """
        msg = self.make_lookup(key, payload, wants_acks)
        self.route_lookup(msg)
        return msg

    def _route(self, msg: m.Message, key: int, excluded: frozenset = frozenset()) -> bool:
        """Route ``msg`` one step towards ``key``; True if forwarded."""
        next_hop = self._next_hop(key, excluded)
        if next_hop is None:
            self._receive_root(msg, key)
            return False
        self._forward(msg, next_hop)
        return True

    def _next_hop(self, key: int, excluded: frozenset) -> Optional[NodeDescriptor]:
        # Routing inner loop: the usability predicate (not suspected, not
        # failed, not excluded) is inlined against hoisted locals — it runs
        # once per candidate per hop, for every routed message.
        suspected = self.suspected
        failed = self.failed
        my_id = self.id
        leaf_set = self.leaf_set
        if leaf_set.covers(key):
            best = self.descriptor
            best_id = my_id
            for desc in leaf_set.members():
                desc_id = desc.id
                if (
                    desc_id not in suspected
                    and desc_id not in failed
                    and desc_id not in excluded
                    and is_closer_root(desc_id, best_id, key)
                ):
                    best = desc
                    best_id = desc_id
            return None if best_id == my_id else best

        b = self.config.b
        row = shared_prefix_length(key, my_id, b)
        primary = self.routing_table.get(row, digit(key, row, b))
        if primary is not None:
            primary_id = primary.id
            if (
                primary_id not in suspected
                and primary_id not in failed
                and primary_id not in excluded
            ):
                return primary

        # Route around the missing/suspect entry: any known node strictly
        # closer to the key that shares a prefix of length >= row.
        best = None
        best_dist = ring_distance(my_id, key)
        for desc in chain(self.routing_table.entries(), leaf_set.members()):
            desc_id = desc.id
            if (
                desc_id in suspected
                or desc_id in failed
                or desc_id in excluded
            ):
                continue
            if shared_prefix_length(key, desc_id, b) < row:
                continue
            dist = ring_distance(desc_id, key)
            if dist < best_dist:
                best = desc
                best_dist = dist
        if (
            best is not None
            and primary is None
            and self.config.passive_rt_repair
            and self.config.pns
        ):
            self.send(best, m.SlotRequest(row=row, col=digit(key, row, b)))
        return best

    def _forward(self, msg: m.Message, next_hop: NodeDescriptor) -> None:
        if isinstance(msg, m.Lookup):
            if msg.wants_acks and self.config.per_hop_acks:
                self.acks.track(msg, next_hop)
        elif isinstance(msg, m.JoinRequest):
            if msg.msg_id and self.config.per_hop_acks:
                self.acks.track(msg, next_hop)
        self.send(next_hop, msg)

    def _reroute_lookup(self, msg: m.Message, excluded: Set[int]) -> bool:
        if self.crashed:
            return False
        if isinstance(msg, m.JoinRequest):
            return self._route(
                msg, msg.joiner.id, frozenset(excluded) | {msg.joiner.id}
            )
        return self._route(msg, msg.key, frozenset(excluded))

    def _resend_lookup(self, msg: m.Message, next_hop: NodeDescriptor) -> None:
        if not self.crashed:
            self.send(next_hop, msg)

    def _lookup_dropped(self, msg: m.Message) -> None:
        if isinstance(msg, m.Lookup) and self.on_drop is not None:
            self.on_drop(self, msg)

    def _receive_root(self, msg: m.Message, key: int) -> None:
        if isinstance(msg, m.JoinRequest):
            self._join_request_at_root(msg)
            return
        if not isinstance(msg, m.Lookup):
            return
        if self.active and self._may_deliver():
            if self._defer_for_suspect(msg, key):
                return
            msg.hops += 1
            if self.on_deliver is not None:
                self.on_deliver(self, msg)
        else:
            self._buffer(msg)

    def _defer_for_suspect(self, msg: m.Lookup, key: int) -> bool:
        """Hold delivery while a closer leaf-set node is merely *suspected*.

        A lost packet or ack must not divert delivery to the second-closest
        node: the suspect either answers the outstanding probe — the retry
        fires immediately and forwards to it — or is marked faulty, in
        which case we really are the root.  A safety timeout and a deferral
        cap bound the extra delay when the suspect is genuinely dead.
        """
        if not self.config.defer_delivery_on_suspect:
            return False
        if msg.deferrals >= self.config.max_delivery_deferrals:
            return False
        blocker = None
        for desc in self.leaf_set.members():
            if desc.id in self.suspected and is_closer_root(desc.id, self.id, key):
                blocker = desc
                break
        if blocker is None:
            return False
        msg.deferrals += 1
        self._deferred.setdefault(blocker.id, []).append(msg)
        self._deferred_ids.add(msg.msg_id)
        self.probe(blocker)  # resolve the limbo quickly (no-op if probing)
        handle = self.sim.schedule(
            self.config.delivery_defer_interval, self._deferred_timeout, msg
        )
        if len(self._timers) > 64:
            self._timers = [h for h in self._timers if h.active]
        self._timers.append(handle)
        return True

    def _deferred_timeout(self, msg: m.Lookup) -> None:
        """Safety valve: re-route even if the suspicion has not resolved."""
        if self.crashed or msg.msg_id not in self._deferred_ids:
            return
        self._deferred_ids.discard(msg.msg_id)
        self._route(msg, msg.key)

    def _flush_deferred_for(self, node_id: int) -> None:
        """The suspicion on ``node_id`` resolved: re-route waiting lookups."""
        msgs = self._deferred.pop(node_id, None)
        if not msgs:
            return
        for msg in msgs:
            if msg.msg_id in self._deferred_ids:
                self._deferred_ids.discard(msg.msg_id)
                self._route(msg, msg.key)

    def _may_deliver(self) -> bool:
        """§3.1: no deliveries while one leaf-set side is empty (unless alone)."""
        if len(self.leaf_set) == 0:
            return True  # single-node overlay
        return bool(self.leaf_set.left_side) and bool(self.leaf_set.right_side)

    def _buffer(self, msg: m.Message) -> None:
        if len(self._buffered) >= MAX_BUFFERED:
            self._buffered.pop(0)
        self._buffered.append(msg)

    def _flush_buffered(self) -> None:
        if not self._buffered or not self.active or not self._may_deliver():
            return
        buffered, self._buffered = self._buffered, []
        for msg in buffered:
            if isinstance(msg, m.JoinRequest):
                self._route(msg, msg.joiner.id, excluded=frozenset({msg.joiner.id}))
            else:
                self._route(msg, msg.key)

    def _on_lookup(self, msg: m.Lookup) -> None:
        msg.hops += 1
        next_hop = self._next_hop(msg.key, frozenset())
        deliverable = next_hop is not None or (self.active and self._may_deliver())
        if (
            deliverable
            and msg.wants_acks
            and self.config.per_hop_acks
            and msg.sender is not None
        ):
            # Ack only what we can forward or deliver: a node that would
            # merely buffer (e.g. still joining) stays silent so the
            # previous hop reroutes around it.
            self.send(msg.sender, m.Ack(msg_id=msg.msg_id))
        if next_hop is None:
            self._receive_root(msg, msg.key)
        else:
            self._forward(msg, next_hop)

    # ------------------------------------------------------------------
    # Routing-table upkeep
    # ------------------------------------------------------------------
    def consider_for_routing_table(self, desc: NodeDescriptor) -> None:
        if desc.id == self.id or desc.id in self.failed:
            return
        self.routing_table.add(desc, self._rt_proximity)

    def _on_slot_request(self, sender: NodeDescriptor, msg: m.SlotRequest) -> None:
        entry = self._find_slot_entry(sender.id, msg.row, msg.col)
        self.send(sender, m.SlotReply(row=msg.row, col=msg.col, entry=entry))

    def _find_slot_entry(
        self, owner_id: int, row: int, col: int
    ) -> Optional[NodeDescriptor]:
        for desc in [self.descriptor] + self.routing_state_members():
            if (
                shared_prefix_length(desc.id, owner_id, self.config.b) >= row
                and digit(desc.id, row, self.config.b) == col
            ):
                return desc
        return None

    def _on_slot_reply(self, msg: m.SlotReply) -> None:
        entry = msg.entry
        if entry is None or entry.id == self.id or entry.id in self.failed:
            return
        # Repair rule: never insert without a direct message — probe first.
        if self.config.pns:
            self.prox.measure(entry, self.prox._make_considerer(entry))
        else:
            self.probe(entry)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    # The handler for each message type is looked up in a precomputed
    # class-level table keyed by exact type (populated below the class
    # body, in the order of the old isinstance chain).  Message types are
    # flat — none subclasses another — so an exact-type hit is equivalent
    # to the chain; hypothetical subclasses fall back to a memoized
    # isinstance resolution in the same order.  Each table entry carries
    # the "contact" flag (may this type trigger leaf-set recovery?) so the
    # pre-dispatch block pays one dict lookup instead of an isinstance
    # check per message.

    def _handle_lookup(self, src_addr, sender, msg) -> None:
        self._on_lookup(msg)

    def _handle_ack(self, src_addr, sender, msg) -> None:
        self.acks.on_ack(msg.msg_id, src_addr)

    def _handle_ls_probe(self, src_addr, sender, msg) -> None:
        self._on_ls_probe(sender, msg)

    def _handle_ls_probe_reply(self, src_addr, sender, msg) -> None:
        self._on_ls_probe_reply(sender, msg)

    def _handle_heartbeat(self, src_addr, sender, msg) -> None:
        self._on_heartbeat(sender)

    def _handle_join_request(self, src_addr, sender, msg) -> None:
        self._on_join_request(msg)

    def _handle_join_reply(self, src_addr, sender, msg) -> None:
        self._on_join_reply(msg)

    def _handle_rt_probe(self, src_addr, sender, msg) -> None:
        self.send(sender, m.RtProbeReply())

    def _handle_rt_probe_reply(self, src_addr, sender, msg) -> None:
        self._on_rt_probe_reply(sender)

    def _handle_distance_probe(self, src_addr, sender, msg) -> None:
        self.prox.on_probe(sender, msg)

    def _handle_distance_probe_reply(self, src_addr, sender, msg) -> None:
        self.prox.on_probe_reply(sender, msg)

    def _handle_distance_report(self, src_addr, sender, msg) -> None:
        self.prox.on_report(sender, msg)

    def _handle_row_announce(self, src_addr, sender, msg) -> None:
        self.prox.on_row_announce(sender, msg)

    def _handle_row_request(self, src_addr, sender, msg) -> None:
        self.prox.on_row_request(sender, msg)

    def _handle_row_reply(self, src_addr, sender, msg) -> None:
        self.prox.on_row_reply(sender, msg)

    def _handle_slot_request(self, src_addr, sender, msg) -> None:
        self._on_slot_request(sender, msg)

    def _handle_slot_reply(self, src_addr, sender, msg) -> None:
        self._on_slot_reply(msg)

    def _handle_leafset_request(self, src_addr, sender, msg) -> None:
        self._on_leafset_request(sender, msg)

    def _handle_leafset_reply(self, src_addr, sender, msg) -> None:
        self._on_leafset_reply(sender, msg)

    def _handle_app_direct(self, src_addr, sender, msg) -> None:
        if self.on_app_direct is not None:
            self.on_app_direct(self, msg)

    def _handle_state_request(self, src_addr, sender, msg) -> None:
        self.send(sender, m.StateReply(nodes=self.routing_state_members()))

    def _handle_state_reply(self, src_addr, sender, msg) -> None:
        if self._discovery is not None:
            self._discovery.on_state_reply(sender, msg)

    @classmethod
    def _resolve_dispatch(cls, msg_type: type) -> tuple:
        """Slow-path resolution for message subclasses, memoized."""
        for registered, entry in _DISPATCH_ORDER:
            if issubclass(msg_type, registered):
                cls._DISPATCH[msg_type] = entry
                return entry
        entry = (None, False)
        cls._DISPATCH[msg_type] = entry
        return entry

    def _on_message(self, src_addr: int, msg: m.Message) -> None:
        if self.crashed:
            return
        entry = self._DISPATCH.get(msg.__class__)
        if entry is None:
            entry = self._resolve_dispatch(msg.__class__)
        handler, is_contact = entry
        sender = msg.sender
        if sender is not None and (sender_id := sender.id) != self.id:
            self.last_heard[sender_id] = self.sim.now
            if len(self.last_heard) >= self._heard_cap:
                self.last_heard, self._heard_cap = self._pruned_recency(
                    self.last_heard, self._heard_horizon)
            self.suspected.discard(sender_id)
            if self._deferred and sender_id in self._deferred:
                self._flush_deferred_for(sender_id)
            if msg.tuning_hint is not None:
                self.tuner.record_hint(sender_id, msg.tuning_hint)
            # Contact-driven leaf-set recovery: traffic from a node that
            # belongs in our leaf set but is not there triggers a probe.
            # This generalizes the heartbeat recovery rule below and is what
            # re-merges two rings after a network partition heals — the
            # first cross-side contact (a routed lookup, an RT probe) pulls
            # the sender in, and the ensuing LS-PROBE exchange propagates
            # both sides' leaf sets.  Only message types that active members
            # send qualify (the ``is_contact`` flag in the dispatch table):
            # probing e.g. a seed-discovery walker or a mid-join node would
            # entangle it in the ring prematurely.
            if is_contact and self.active:
                leaf_set = self.leaf_set
                if (
                    sender_id not in leaf_set._members
                    and sender_id not in self.failed
                    and leaf_set.would_admit(sender)
                ):
                    self.probe(sender)
        if handler is not None:
            # Byzantine overlay: the sender bookkeeping above still ran (a
            # compromised node keeps its own protocol state honest), but the
            # overlay may consume the message instead of the real handler.
            adversary = self.adversary
            if adversary is not None and adversary.intercept(src_addr, msg):
                return
            handler(self, src_addr, sender, msg)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def debug_state(self) -> dict:
        """Snapshot of the node's protocol state (for operators/tests)."""
        return {
            "id": self.id,
            "addr": self.addr,
            "active": self.active,
            "crashed": self.crashed,
            "leaf_set_size": len(self.leaf_set),
            "leaf_left": len(self.leaf_set.left_side),
            "leaf_right": len(self.leaf_set.right_side),
            "routing_table_entries": len(self.routing_table),
            "probing": len(self.probing),
            "rt_probing": len(self._rt_probing),
            "suspected": len(self.suspected),
            "failed_remembered": len(self.failed),
            "buffered": len(self._buffered),
            "deferred": len(self._deferred_ids),
            "acks_in_flight": self.acks.in_flight,
            "rt_probe_period": self._rt_period,
            "mu_estimate": self.tuner.mu_estimate,
            "n_estimate": self.tuner.n_estimate,
            "proximity_cache": len(self.prox.proximity),
        }

    # ------------------------------------------------------------------
    # Crash-stop
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop: lose all state, cancel all timers, leave the network."""
        if self.crashed:
            return
        self.crashed = True
        self.active = False
        self.network.deregister(self.addr)
        if self.adversary is not None:
            self.adversary.uninstall()
        for task in self._tasks:
            task.stop()
        self._tasks.clear()
        for state in list(self.probing.values()) + list(self._rt_probing.values()):
            if state.timer is not None:
                state.timer.cancel()
        self.probing.clear()
        self._rt_probing.clear()
        self.acks.cancel_all()
        self.prox.cancel_all()
        if self._discovery is not None:
            self._discovery.cancel()
        if self._join_timer is not None:
            self._join_timer.cancel()
        if self._rt_scan_handle is not None:
            self._rt_scan_handle.cancel()
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()
        self._buffered.clear()
        self._deferred.clear()
        self._deferred_ids.clear()

    leave = crash  # voluntary departure is indistinguishable from a crash


#: Dispatch table source of truth, in the order of the old isinstance chain
#: (resolution order matters only for hypothetical message subclasses; the
#: shipped types are flat so exact-type lookup always hits).  The boolean is
#: the "contact" flag: message types active ring members send, eligible to
#: trigger contact-driven leaf-set recovery in ``_on_message``.
_DISPATCH_ORDER = (
    (m.Lookup, (MSPastryNode._handle_lookup, True)),
    (m.Ack, (MSPastryNode._handle_ack, True)),
    (m.LsProbe, (MSPastryNode._handle_ls_probe, False)),
    (m.LsProbeReply, (MSPastryNode._handle_ls_probe_reply, False)),
    (m.Heartbeat, (MSPastryNode._handle_heartbeat, True)),
    (m.JoinRequest, (MSPastryNode._handle_join_request, False)),
    (m.JoinReply, (MSPastryNode._handle_join_reply, False)),
    (m.RtProbe, (MSPastryNode._handle_rt_probe, True)),
    (m.RtProbeReply, (MSPastryNode._handle_rt_probe_reply, True)),
    (m.DistanceProbe, (MSPastryNode._handle_distance_probe, False)),
    (m.DistanceProbeReply, (MSPastryNode._handle_distance_probe_reply, False)),
    (m.DistanceReport, (MSPastryNode._handle_distance_report, False)),
    (m.RowAnnounce, (MSPastryNode._handle_row_announce, False)),
    (m.RowRequest, (MSPastryNode._handle_row_request, False)),
    (m.RowReply, (MSPastryNode._handle_row_reply, False)),
    (m.SlotRequest, (MSPastryNode._handle_slot_request, False)),
    (m.SlotReply, (MSPastryNode._handle_slot_reply, False)),
    (m.LeafSetRequest, (MSPastryNode._handle_leafset_request, False)),
    (m.LeafSetReply, (MSPastryNode._handle_leafset_reply, False)),
    (m.AppDirect, (MSPastryNode._handle_app_direct, False)),
    (m.StateRequest, (MSPastryNode._handle_state_request, False)),
    (m.StateReply, (MSPastryNode._handle_state_reply, False)),
)

MSPastryNode._DISPATCH = {cls: entry for cls, entry in _DISPATCH_ORDER}
