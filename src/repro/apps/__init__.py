"""Applications built on the MSPastry overlay.

The paper validates the simulator against a deployment of the Squirrel
decentralized web cache (§5.3.1); :class:`SquirrelProxy` reconstructs it
for Figure 8.
"""

from repro.apps.squirrel import SquirrelProxy, WebOrigin

__all__ = [
    "SquirrelProxy",
    "WebOrigin",
]
