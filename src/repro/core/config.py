"""Protocol configuration.

All tunables of the core algorithm live here, including the switches the
ablation benchmarks flip:

* ``piggyback_commits`` — Section 4.2's optimisation: commit tags ride on
  the next outgoing ring message instead of consuming their own wire
  slot.  Turning it off roughly halves write throughput (ABL4).
* ``fair_forwarding`` — the nb_msg fairness scheduler.  Turning it off
  makes each server prioritise its own clients' writes, which starves
  forwarding under load and lets write latencies diverge (ABL4).
* ``batch_max_messages`` — ring-frame batching: successive successor-
  bound ring messages coalesce into one session-layer wire frame,
  amortising per-frame overhead (and, in the simulator, per-frame
  events).  ``1`` disables batching (every message is its own frame).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ProtocolConfig:
    """Tunables for :class:`~repro.core.server.ServerProtocol` and
    :class:`~repro.core.client.ClientProtocol`.

    Attributes
    ----------
    piggyback_commits:
        Attach queued commit tags to outgoing ring messages (paper
        Section 4.2).  When ``False`` every commit is a standalone
        message, doubling per-write ring traffic.
    fair_forwarding:
        Use the nb_msg fairness rule (pseudocode lines 53–75).  When
        ``False`` a server always prefers its own write queue, the
        behaviour the paper warns would prevent ring progress.
    client_timeout:
        Seconds a client waits for a reply before retrying its request at
        another server.  Must exceed the worst-case write latency in the
        deployment; the paper's synchronous-cluster assumption makes such
        a bound known.
    client_max_retries:
        Retries before the client raises
        :class:`~repro.errors.StorageUnavailableError`.
    batch_max_messages:
        Maximum successor-bound ring messages coalesced into one wire
        frame (:func:`repro.transport.reliable.encode_batch`).  Each
        message keeps its own session sequence number, so FIFO order,
        cumulative acks and duplicate suppression are untouched; the
        batch only changes how many segments share a frame.  ``1``
        disables batching.  Pulls stop early when the successor changes
        mid-drain (a queued reconfiguration message may retarget the
        ring) so a frame never mixes destinations.  The default of 4 is
        the measured sweet spot: per-frame overhead amortises with no
        visible store-and-forward latency cost, whereas deep batches
        (16) inflate per-hop latency enough to cost ~8 % simulated
        throughput at 4 KiB values (see docs/perf.md).  Runtimes apply
        the knob on *dedicated* ring links only: on the shared topology
        (one NIC for ring and client traffic) a k-message frame would
        take a k-fold share of the frame-granular round-robin and
        starve read replies, so the limit degenerates to 1 there.  The
        simulator additionally bounds the effective depth by ring size
        (``k*n <= 16``): frames store-and-forward whole per hop, so
        deep batches on long rings delay commits enough to sag
        contended read throughput (figure 3c at n=8).
    view_quorum:
        Epoch-guarded, quorum-installed ring views — the operating mode
        for clusters running the *imperfect* (heartbeat) failure
        detector.  Suspicions no longer splice the view directly:
        membership changes only through a reconfiguration commit whose
        token traversed (and was therefore acked by) a majority of the
        previous view's alive members, data traffic is rejected across
        epochs, and a wrongly suspected server pauses instead of serving
        possibly-stale reads.  Runtimes enable this automatically when
        built with ``fd="heartbeat"``; with the perfect detector the
        flag stays off and suspicion remains a crash certificate
        (:meth:`for_detector` is the one statement of that rule).
    read_leases:
        Epoch-scoped read leases (docs/leases.md).  The heartbeat
        detector grants per-server leases bounded below the suspicion
        timeout; a server holding a valid lease for its installed epoch
        serves reads locally with zero ring messages, and falls back to
        a full-circle :class:`~repro.core.messages.ReadFence` otherwise.
        Requires ``view_quorum`` (the lease safety argument leans on
        epoch-guarded installs and their wait-out); runtimes reject the
        flag under the perfect detector, where reads already serve
        locally whenever no write is pending.
    value_coding:
        ``"replicated"`` (the paper's full-replication ring: every
        server stores and forwards whole values) or ``"coded"`` (the
        CASGC-style backend: values stripe into ``coding_k``-of-
        ``coding_n`` GF(256) fragments, each server durably stores only
        its own ~``1/k``-size fragment, and reads reconstruct from any
        ``k`` fragments — see docs/coding.md).  Tags stay replicated in
        both modes; only value bytes are coded.
    coding_k:
        Data fragments per value under ``value_coding="coded"``: any
        ``coding_k`` of the ``coding_n`` fragments reconstruct the value.
        Higher ``k`` cuts per-server bytes (~``n/k`` total instead of
        ``n``) but tolerates fewer missing fragments.
    coding_n:
        Total fragments per value — must equal the ring size (one
        fragment per member, indexed by ring position).
    """

    piggyback_commits: bool = True
    fair_forwarding: bool = True
    batch_max_messages: int = 4
    client_timeout: float = 5.0
    client_max_retries: int = 16
    view_quorum: bool = False
    read_leases: bool = False
    value_coding: str = "replicated"
    coding_k: int = 2
    coding_n: int = 4

    def validate(self) -> "ProtocolConfig":
        """Raise :class:`ConfigurationError` on nonsensical settings."""
        if self.batch_max_messages < 1:
            raise ConfigurationError("batch_max_messages must be >= 1")
        if self.client_timeout <= 0:
            raise ConfigurationError("client_timeout must be > 0")
        if self.client_max_retries < 0:
            raise ConfigurationError("client_max_retries must be >= 0")
        if self.read_leases and not self.view_quorum:
            raise ConfigurationError(
                "read_leases requires view_quorum: lease safety rests on "
                "epoch-guarded installs and the old-epoch wait-out"
            )
        if self.value_coding not in ("replicated", "coded"):
            raise ConfigurationError(
                f"value_coding must be 'replicated' or 'coded', "
                f"got {self.value_coding!r}"
            )
        if self.value_coding == "coded":
            if not self.view_quorum:
                raise ConfigurationError(
                    "value_coding='coded' requires view_quorum: with only "
                    "a fragment per server, quorum-installed views are what "
                    "keeps >= k fragment holders in every installed ring"
                )
            if not 1 <= self.coding_k <= self.coding_n:
                raise ConfigurationError(
                    f"need 1 <= coding_k <= coding_n, got "
                    f"k={self.coding_k}, n={self.coding_n}"
                )
            # Liveness bound: a quorum-installed view keeps a majority
            # of the full ring alive, so n - f >= k must hold for
            # f = n - (n // 2 + 1) crashed members — otherwise a legal
            # view could retain fewer than k fragment holders.
            if self.coding_k > self.coding_n // 2 + 1:
                raise ConfigurationError(
                    f"coding_k={self.coding_k} exceeds the view-quorum "
                    f"liveness bound n - f = {self.coding_n // 2 + 1} for "
                    f"n={self.coding_n}: a majority view could hold fewer "
                    "than k fragments"
                )
        return self

    def for_detector(self, fd: str, elastic: bool = False) -> "ProtocolConfig":
        """This configuration as a cluster under detector ``fd`` runs it:
        validated, with ``view_quorum`` following the detector.

        The heartbeat detector can be wrong, so it *forces* quorum-
        installed views; the perfect detector's verdicts are crash
        certificates, so it *rejects* them (nothing would ever propose a
        view).  Leases and coded values both lean on quorum views
        (:meth:`validate`), which leaves these rows — every other
        combination raises :class:`ConfigurationError`:

        =========  ==========  ======  ====================================
        detector   values      leases
        =========  ==========  ======  ====================================
        perfect    replicated  no      the paper; the only ``elastic`` row
        heartbeat  replicated  no
        heartbeat  replicated  yes
        heartbeat  coded       no
        heartbeat  coded       yes
        =========  ==========  ======  ====================================

        ``elastic`` (explicit block placement over several rings,
        :func:`~repro.core.sharded.build_elastic_cluster`) admits the
        first row only: the cross-ring snapshot handoff assumes crash
        facts, and erasure coding pins ``coding_n`` to the whole cluster
        size, which per-ring views break.
        """
        if fd not in ("perfect", "heartbeat"):
            raise ConfigurationError(f"unknown failure detector {fd!r}")
        if fd == "heartbeat":
            if elastic:
                raise ConfigurationError(
                    "elastic placement requires the perfect failure detector"
                )
            return replace(self, view_quorum=True).validate()
        if self.view_quorum:
            raise ConfigurationError(
                "view_quorum requires the heartbeat failure detector"
            )
        return self.validate()
