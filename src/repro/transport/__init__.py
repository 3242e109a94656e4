"""Wire transports: message codec, stream framing and reliable sessions.

* :mod:`repro.transport.codec` — a compact binary codec for every
  protocol message; encodings match the analytic sizes charged by the
  simulator (tested), so simulated and real transports agree on cost;
* :mod:`repro.transport.framing` — length-prefixed stream framing used
  by the asyncio runtime;
* :mod:`repro.transport.reliable` — the sans-I/O reliable session layer
  (sequence numbers, cumulative acks, retransmission, dedup) both
  runtimes put under every link, turning the paper's reliable-FIFO
  channel assumption into implemented machinery.
"""

from repro.transport.codec import decode_message, encode_message
from repro.transport.framing import FrameDecoder, frame
from repro.transport.reliable import (
    SEGMENT_HEADER_BYTES,
    ReliableConfig,
    ReliableSession,
    Segment,
    decode_segment,
    encode_segment,
)

__all__ = [
    "FrameDecoder",
    "ReliableConfig",
    "ReliableSession",
    "SEGMENT_HEADER_BYTES",
    "Segment",
    "decode_message",
    "decode_segment",
    "encode_message",
    "encode_segment",
    "frame",
]
