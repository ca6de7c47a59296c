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
"""

from repro.core.registry import RegistryView, register, resolve
from repro.routing.audit import RoutingAudit, audit_all, audit_destination, next_hop_map
from repro.routing.base import RoutingProtocol
from repro.routing.table import RouteEntry, RouteTable
from repro.routing.aodv import Aodv
from repro.routing.olsr import Olsr
from repro.routing.dymo import Dymo
from repro.routing.dsdv import Dsdv
from repro.routing.flooding import Flooding

register("routing", "AODV")(Aodv)
register("routing", "OLSR")(Olsr)
register("routing", "DYMO")(Dymo)
register("routing", "DSDV")(Dsdv)
register("routing", "FLOODING")(Flooding)

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


__all__ = [
    "RoutingProtocol",
    "RouteTable",
    "RouteEntry",
    "RoutingAudit",
    "audit_all",
    "audit_destination",
    "next_hop_map",
    "Aodv",
    "Olsr",
    "Dymo",
    "Dsdv",
    "Flooding",
    "PROTOCOLS",
    "make_protocol",
]
