"""Live asyncio TCP runtime for the Q-OPT protocol.

This package deploys the *same* protocol code that runs inside the
discrete-event simulator — :class:`~repro.sds.proxy.ProxyNode`,
:class:`~repro.sds.storage.StorageNode`,
:class:`~repro.sds.client.ClientNode` and the reconfiguration manager —
over real TCP sockets and wall-clock time:

* :mod:`repro.net.transport` — the :class:`Transport` seam both the sim
  :class:`~repro.sim.network.Network` and the live
  :class:`~repro.net.tcp.TcpTransport` satisfy;
* :mod:`repro.net.kernel` — :class:`RealtimeKernel`, an asyncio-backed
  drop-in for the sim :class:`~repro.sim.kernel.Simulator` that runs the
  unmodified protocol generators in real time;
* :mod:`repro.net.codec` — the deterministic binary wire format for every
  dataclass in :mod:`repro.sds.messages`;
* :mod:`repro.net.tcp` — length-prefixed framing, reconnect-with-backoff
  and return-route learning over asyncio streams;
* :mod:`repro.net.runtime` / :mod:`repro.net.cluster` — the
  ``python -m repro serve | cluster`` process runners;
* :mod:`repro.net.loadgen` — the load generator, the one live-run
  report and the boot/teardown scaffold behind ``loadgen``,
  ``livesmoke`` (:mod:`repro.net.smoke`), ``livechaos``
  (:mod:`repro.net.chaos`) and ``loadgen --shards``
  (:mod:`repro.net.scaleout`).

Import note: this ``__init__`` stays lightweight (protocol-side modules
import :mod:`repro.net.transport`; eagerly importing the TCP stack here
would create an import cycle through :mod:`repro.sds.messages`).
"""

from repro.net.transport import Transport

__all__ = ["Transport"]
