"""Campaign service: an async daemon over the content-addressed store.

``python -m repro.service`` runs a long-lived daemon that accepts
:class:`~repro.eval.api.CampaignRequest` submissions over a
line-delimited JSON socket, deduplicates
overlapping experiment tuples across concurrent clients against both the
persistent result store and an in-flight table, executes the remainder
on one shared supervised pool, and streams records back as they
complete — bit-identical, in the same order, to an in-process
:func:`repro.eval.run` of the same request.

Layers (each importable on its own):

* :mod:`~repro.service.protocol` — the wire format;
* :mod:`~repro.service.dedupe` — tuple tables keyed by store address;
* :mod:`~repro.service.projections` — event log + derived status views;
* :mod:`~repro.service.scheduler` — expansion, admission, batching;
* :mod:`~repro.service.server` — the asyncio daemon and thread wrapper;
* :mod:`~repro.service.client` — the blocking client.
"""

from .client import ServiceClient, ServiceError
from .projections import EventLog, Projections
from .protocol import PROTOCOL_VERSION, ProtocolError
from .scheduler import CampaignScheduler
from .server import ServiceDaemon, ServiceServer

__all__ = [
    "CampaignScheduler",
    "EventLog",
    "PROTOCOL_VERSION",
    "Projections",
    "ProtocolError",
    "ServiceClient",
    "ServiceDaemon",
    "ServiceError",
    "ServiceServer",
]
