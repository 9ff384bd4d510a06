"""Squirrel: a decentralized peer-to-peer web cache (paper §5.3.1, Fig 8).

Each participating desktop runs a proxy.  A browser request for a URL is
hashed (SHA-1 in the real system) into the overlay key space and routed to
the key's root — the URL's *home node*.  The home node serves the object
from its cache or fetches it from the origin web server, caches it, and
returns it to the requester, which also caches it locally.

This reconstruction implements the "home-store" Squirrel model the paper
deployed and models the origin server as a configurable fetch latency.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.pastry.messages import AppDirect, Lookup
from repro.pastry.node import MSPastryNode
from repro.pastry.nodeid import key_of


def _chain_callback(existing: Optional[Callable], new: Callable) -> Callable:
    """Compose node callbacks so metrics hooks and the proxy coexist.

    The experiment runner installs metrics callbacks on every node; a proxy
    attaching afterwards must not displace them.  The existing callback (if
    any) runs first, then the proxy's.
    """
    if existing is None:
        return new

    def chained(*args):
        existing(*args)
        new(*args)

    return chained


@dataclass
class WebOrigin:
    """Models the origin web servers: a flat fetch latency per object."""

    fetch_delay: float = 0.25


@dataclass
class _Request:
    url: str = ""
    request_id: int = 0
    reply_to: object = None  # NodeDescriptor


@dataclass
class _Response:
    url: str = ""
    request_id: int = 0
    from_cache: bool = False


class _LruCache:
    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()

    def get(self, key) -> Optional[object]:
        if key not in self._data:
            return None
        self._data.move_to_end(key)
        return self._data[key]

    def put(self, key, value) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)


class SquirrelProxy:
    """The Squirrel proxy running on one overlay node."""

    def __init__(
        self,
        node: MSPastryNode,
        origin: Optional[WebOrigin] = None,
        local_cache_size: int = 100,
        home_cache_size: int = 1000,
    ) -> None:
        if getattr(node, "_squirrel_attached", False):
            raise ValueError("node already has a Squirrel proxy attached")
        node._squirrel_attached = True
        self.node = node
        self.origin = origin or WebOrigin()
        self.local_cache = _LruCache(local_cache_size)
        self.home_cache = _LruCache(home_cache_size)
        self._next_request = 0
        self._pending: Dict[int, Callable[[str, bool], None]] = {}
        # statistics
        self.local_hits = 0
        self.remote_hits = 0
        self.origin_fetches = 0
        self.requests = 0
        node.on_deliver = _chain_callback(node.on_deliver, self._deliver)
        node.on_app_direct = _chain_callback(node.on_app_direct, self._direct)

    # ------------------------------------------------------------------
    # Browser-facing API
    # ------------------------------------------------------------------
    def request(self, url: str,
                callback: Optional[Callable[[str, bool], None]] = None) -> None:
        """Issue a web request; callback(url, was_cached_in_overlay)."""
        self.requests += 1
        if self.local_cache.get(url) is not None:
            self.local_hits += 1
            if callback is not None:
                callback(url, True)
            return
        self._next_request += 1
        if callback is not None:
            self._pending[self._next_request] = callback
        request = _Request(url=url, request_id=self._next_request,
                           reply_to=self.node.descriptor)
        self.node.lookup(key_of(url.encode()), payload=request)

    # ------------------------------------------------------------------
    # Home-node side
    # ------------------------------------------------------------------
    def _deliver(self, node: MSPastryNode, msg: Lookup) -> None:
        request = msg.payload
        if not isinstance(request, _Request):
            return
        if self.home_cache.get(request.url) is not None:
            self.remote_hits += 1
            self._respond(request, from_cache=True)
        else:
            # Fetch from the origin server, then cache and respond.
            self.origin_fetches += 1
            node.sim.schedule(self.origin.fetch_delay, self._fetched, request)

    def _fetched(self, request: _Request) -> None:
        if self.node.crashed:
            return
        self.home_cache.put(request.url, True)
        self._respond(request, from_cache=False)

    def _respond(self, request: _Request, from_cache: bool) -> None:
        response = _Response(url=request.url, request_id=request.request_id,
                             from_cache=from_cache)
        if request.reply_to.id == self.node.id:
            self._direct(self.node, AppDirect(payload=response))
        else:
            self.node.send(request.reply_to, AppDirect(payload=response))

    # ------------------------------------------------------------------
    # Requester side
    # ------------------------------------------------------------------
    def _direct(self, node: MSPastryNode, msg: AppDirect) -> None:
        response = msg.payload
        if not isinstance(response, _Response):
            return
        self.local_cache.put(response.url, True)
        callback = self._pending.pop(response.request_id, None)
        if callback is not None:
            callback(response.url, response.from_cache)
