"""Wire-level cost model for messages.

The paper's throughput numbers are NIC-bandwidth-bound, so faithfully
reproducing their *shape* requires charging each message its true cost on
a fast-ethernet wire: the application payload plus framing, segmented into
MSS-sized TCP segments, each carrying TCP/IP headers and Ethernet
preamble/framing/inter-frame gap.

With the defaults below a 4096-byte application payload costs
``3 segments -> 4096 + 32 + 3*78 = 4362`` wire bytes, i.e. an efficiency
of ~94 %, which matches the ~90 Mbit/s per-server read goodput the paper
measures on 100 Mbit/s links.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Default TCP maximum segment size on a 1500-byte-MTU ethernet
#: (1500 - 20 IP - 20 TCP - 12 TCP options).
DEFAULT_MSS = 1448

#: Per-segment overhead: 52 bytes of TCP/IP headers (with timestamps) plus
#: 26 bytes of Ethernet framing, preamble and inter-frame gap.
DEFAULT_SEGMENT_OVERHEAD = 78

#: Bytes our message codec prepends to every application message.
DEFAULT_APP_HEADER = 32

#: Minimum cost of any frame on the wire (ethernet minimum frame + gap).
DEFAULT_MIN_FRAME = 84


@dataclass(frozen=True)
class WireModel:
    """Computes wire bytes and transmission times for messages.

    Attributes
    ----------
    mss:
        TCP maximum segment size (application bytes per segment).
    segment_overhead:
        Header + framing bytes charged per segment.
    app_header:
        Codec framing bytes charged once per message.
    min_frame:
        Lower bound on the wire size of any message.
    """

    mss: int = DEFAULT_MSS
    segment_overhead: int = DEFAULT_SEGMENT_OVERHEAD
    app_header: int = DEFAULT_APP_HEADER
    min_frame: int = DEFAULT_MIN_FRAME

    def wire_bytes(self, payload_bytes: int) -> int:
        """Total bytes a ``payload_bytes`` message occupies on the wire."""
        if payload_bytes < 0:
            raise ValueError(f"payload_bytes must be >= 0, got {payload_bytes}")
        # Called per simulated frame: integer arithmetic, no builtins.
        total_app = payload_bytes + self.app_header
        segments = (total_app - 1) // self.mss + 1 if total_app > 0 else 1
        wire_bytes = total_app + segments * self.segment_overhead
        return wire_bytes if wire_bytes > self.min_frame else self.min_frame


@dataclass(frozen=True)
class LinkProfile:
    """Wire-level impairment of one directed link.

    The nemesis layer (:mod:`repro.sim.nemesis`) attaches profiles to
    links to model lossy, slow or duplicating paths.  A profile describes
    *per-message* behaviour; windowing (when the impairment is active) is
    the fault plan's job.

    Attributes
    ----------
    drop_p:
        Probability a message is silently lost on this link.
    dup_p:
        Probability a message is delivered twice.  The duplicate trails
        the original by one fabric propagation delay and is FIFO-clamped
        behind it.
    extra_delay:
        Fixed additional latency in seconds added to every delivery.
    jitter:
        Upper bound of a uniform random additional latency.  Deliveries
        on a link are never reordered by jitter — the nemesis clamps
        arrival times to keep each link FIFO, matching TCP.
    """

    drop_p: float = 0.0
    dup_p: float = 0.0
    extra_delay: float = 0.0
    jitter: float = 0.0

    def validate(self) -> "LinkProfile":
        if not 0.0 <= self.drop_p <= 1.0:
            raise ValueError(f"drop_p must be in [0, 1], got {self.drop_p}")
        if not 0.0 <= self.dup_p <= 1.0:
            raise ValueError(f"dup_p must be in [0, 1], got {self.dup_p}")
        if self.extra_delay < 0 or self.extra_delay != self.extra_delay:
            raise ValueError(f"extra_delay must be >= 0, got {self.extra_delay}")
        if self.jitter < 0 or self.jitter != self.jitter:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        return self
