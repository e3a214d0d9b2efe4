"""Verification-as-a-service: the fault-tolerant campaign daemon.

The batch CLI dies with its foreground process; this package is the
ROADMAP's "verification-as-a-service" step -- a stdlib-only daemon
(``repro serve``) that accepts Definition-2 verification campaigns over
a thin HTTP/JSON protocol, shards their cells across a supervised
worker fleet, and keeps producing bit-identical evidence while workers
crash, stall, and lie.

The fleet and its lease loop are the engine's own: the daemon keeps one
:class:`~repro.verify.fleet.Fleet` for its whole life (workers build
each campaign's :class:`~repro.verify.engine.SweepCampaign` from its
spec and send their heartbeats over their pipes) and lends it to each
campaign's engine as ``fleet=``, with its drain switch on the fleet --
the same supervised dispatch, circuit breaker included, that a batch
``--jobs N`` runs.

Layers (each its own module):

* :mod:`repro.service.campaigns`  -- the campaign spec: a JSON document
  naming a program corpus, a policy grid, a config, and seed ranges;
  content-signed so campaign ids and results are bound to their inputs;
* :mod:`repro.service.protocol`   -- a minimal asyncio HTTP/1.1 server
  (no dependencies, no frameworks);
* :mod:`repro.service.daemon`     -- the daemon: campaign queue with
  backpressure (429 + Retry-After), sequential execution through
  :class:`~repro.verify.engine.VerificationEngine` on the fleet,
  SIGTERM drain, and restart resume from the shared verdict store;
* :mod:`repro.service.client`     -- the stdlib client the ``submit`` /
  ``campaigns`` CLI subcommands and the tests drive;
* :mod:`repro.service.chaos`      -- ``repro chaos --service``: kill
  fleet workers and the daemon itself mid-campaign, and require the
  evidence of a serial in-process sweep.

Importing the package loads none of these layers: its names re-export
lazily, so ``repro submit``, which needs only the client, loads neither
the daemon nor ``asyncio``, the engine or ``multiprocessing``.

The determinism story: the daemon never re-implements the sweep.  The
engine runs in the daemon process with ``fleet=`` pointing at the
daemon's fleet, so folds, store flushes, and monitor ticks
are the engine's own -- a campaign's evidence table is bit-identical to
``repro sweep``'s no matter how many workers were killed on the way.
"""

from repro import _lazy_exports

_EXPORTS = {
    "campaigns": ("CampaignError", "CampaignSpec"),
    "client": ("ServiceClient", "ServiceError"),
    "daemon": ("CampaignDaemon",),
}
__all__ = _lazy_exports(__name__, _EXPORTS)
