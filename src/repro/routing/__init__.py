"""Ad-hoc routing protocols: AODV, OLSR, DYMO (plus DSDV and flooding).

The three protocols the paper evaluates (Section III-B) are implemented
against a common interface so the evaluation harness can swap them by name:

* :class:`Aodv` — reactive, RFC 3561-style route discovery.
* :class:`Olsr` — proactive link-state with MPR flooding (RFC 3626 core),
  optionally using the ETX/LQ metric extension.
* :class:`Dymo` — reactive with path accumulation
  (draft-ietf-manet-dymo style).
* :class:`Dsdv` and :class:`Flooding` — extension baselines.

AODV and DYMO share one reactive core,
:class:`~repro.routing.reactive.ReactiveProtocol`: the discovery buffer,
RREQ retries, HELLO neighbour upkeep, link breaks and RERR handling are
written once there.

Name-to-class dispatch goes through the ``"routing"`` namespace of
:mod:`repro.core.registry`; a third-party protocol registers with
``@register("routing", "GPSR")`` and is immediately selectable by
``Scenario(protocol=...)``, :func:`make_protocol` and the CLI.
``PROTOCOLS`` remains as a read-only mapping alias over that namespace.
A protocol's module is imported when the protocol is first resolved or
imported from this package, so a run loads only the protocol it uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports
from repro.core.registry import RegistryView, resolve

if TYPE_CHECKING:
    from repro.routing.base import RoutingProtocol

#: Read-only mapping alias over the registry namespace (kept for callers
#: that iterate or index protocols by name; late registrations appear here
#: automatically).
PROTOCOLS = RegistryView("routing")


def make_protocol(name: str, node, rng, **kwargs) -> RoutingProtocol:
    """Instantiate a protocol by its (case-insensitive) registered name.

    Thin wrapper over ``registry.resolve("routing", name)``; an unknown
    name raises :class:`~repro.util.errors.ConfigError` listing the live
    set of registered protocols.
    """
    return resolve("routing", name)(node, rng, **kwargs)


_EXPORTS = {
    "RoutingProtocol": "repro.routing.base:RoutingProtocol",
    "RouteTable": "repro.routing.table:RouteTable",
    "RouteEntry": "repro.routing.table:RouteEntry",
    "RoutingAudit": "repro.routing.audit:RoutingAudit",
    "audit_all": "repro.routing.audit:audit_all",
    "audit_destination": "repro.routing.audit:audit_destination",
    "next_hop_map": "repro.routing.audit:next_hop_map",
    "Aodv": "repro.routing.aodv:Aodv",
    "Olsr": "repro.routing.olsr:Olsr",
    "Dymo": "repro.routing.dymo:Dymo",
    "Dsdv": "repro.routing.dsdv:Dsdv",
    "Flooding": "repro.routing.flooding:Flooding",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS, "PROTOCOLS", "make_protocol"]
