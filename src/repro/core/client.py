"""The client state machine (sans-I/O).

Per the paper: "Clients send Read and Write requests to any server in S.
If the server contacted by the client crashes, the client re-issues the
request to another server.  Clients do not directly detect the failure of
a server, but when their request times out, they simply re-send it to
another server."

A :class:`ClientProtocol` performs one operation at a time (registers are
sequential objects); the workload layer runs many client instances to
generate load.  Retries reuse the same :class:`~repro.core.messages.OpId`
so that servers can deduplicate a write whose ack was lost in a crash.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import ProtocolConfig
from repro.core.messages import ClientRead, ClientWrite, OpId, ReadAck, WriteAck
from repro.core.tags import Tag
from repro.errors import ProtocolError
from repro.runtime.interface import Complete, Effect, Fail, SendTo


class ClientProtocol:
    """One logical storage client.

    Parameters
    ----------
    client_id:
        Globally unique client identifier.
    servers:
        Server ids the client may contact, in preference order; the first
        is its "home" server (the paper binds client machines to servers),
        and retries walk the list round-robin.
    config:
        Protocol tunables (timeout, retry budget).
    """

    def __init__(
        self,
        client_id: int,
        servers: list[int],
        config: Optional[ProtocolConfig] = None,
    ):
        if not servers:
            raise ProtocolError("a client needs at least one server")
        self.client_id = client_id
        self.servers = list(servers)
        self.config = (config or ProtocolConfig()).validate()

        self._seq = 0
        self._server_index = 0
        self._outstanding: Optional[OpId] = None
        self._message = None
        self._retries = 0
        #: Largest tag observed across this client's completed ops.  Sent
        #: with reads so a lease-holding server only serves locally when
        #: its state covers everything this client has already seen.
        self._session: Optional[Tag] = None

        # Statistics.
        self.stats_ops_completed = 0
        self.stats_retries = 0

    @property
    def busy(self) -> bool:
        """Whether an operation is in flight."""
        return self._outstanding is not None

    @property
    def outstanding(self) -> Optional[OpId]:
        """The in-flight op id, if any (runtimes match replies against it)."""
        return self._outstanding

    @property
    def current_server(self) -> int:
        return self.servers[self._server_index % len(self.servers)]

    # ------------------------------------------------------------------
    # Invocations
    # ------------------------------------------------------------------

    def start_write(self, value: bytes) -> tuple[OpId, list[Effect]]:
        """Begin a write; returns the op id and the effects to execute."""
        op = self._begin()
        self._message = ClientWrite(op, value)
        return op, self._issue()

    def start_read(self) -> tuple[OpId, list[Effect]]:
        """Begin a read; returns the op id and the effects to execute."""
        op = self._begin()
        self._message = ClientRead(op, self._session)
        return op, self._issue()

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------

    def on_reply(self, message) -> list[Effect]:
        """Handle a server reply (ack for the outstanding operation)."""
        op = self._outstanding
        if op is None or message.op != op:
            return []  # stale reply from a retried server; ignore
        # Replies are final record classes: identity tests, no isinstance.
        kind, tag = type(message), message.tag
        if kind is WriteAck:
            done = Complete(op, kind="write", tag=tag)
        elif kind is ReadAck:
            done = Complete(op, kind="read", value=message.value, tag=tag)
        else:
            raise ProtocolError(f"unexpected reply: {message!r}")
        self._reset()
        self.stats_ops_completed += 1
        if tag is not None and (self._session is None or tag > self._session):
            self._session = tag
        return [done]

    def on_timeout(self) -> list[Effect]:
        """The outstanding attempt's deadline passed: retry at the next
        server, or fail the operation once the retries are spent.  The
        runtime keeps one deadline per client and drops it on
        :class:`Complete`/:class:`Fail`, so a timeout always belongs to
        the operation in flight; with none in flight it is a no-op."""
        if self._outstanding is None:
            return []
        if self._retries >= self.config.client_max_retries:
            return self.fail_current("retries exhausted")
        self._retries += 1
        self.stats_retries += 1
        self._server_index += 1
        return self._issue()

    def reissue(self) -> list[Effect]:
        """Re-send the outstanding operation immediately.

        Used by the sharded runtime when a :class:`PlacementRedirect`
        arrives: the operation is fine, only its destination was stale,
        so it goes straight back out (the host maps the send onto the
        block's refreshed placement) without burning a retry or waiting
        for the timeout.  The request's timeout replaces the old one.
        """
        if self._outstanding is None:
            return []  # redirect raced the completion; nothing to resend
        return self._issue()

    def fail_current(self, reason: str) -> list[Effect]:
        """Fail the outstanding operation without waiting for timeouts.

        For dead ends: retries exhausted, or a runtime-detected one (e.g.
        a placement-redirect budget exhausted) where further retries
        would only chase the same stale state.  The handle is
        immediately reusable.
        """
        op = self._reset()
        return [] if op is None else [Fail(op, reason=reason)]

    def abandon(self) -> Optional[OpId]:
        """Forget the in-flight operation without completing it.

        The runtime calls this when it gives up on an operation for
        reasons the protocol cannot see (e.g. the simulation went idle
        with the operation half-open).  Returns the abandoned op id, or
        ``None`` if nothing was in flight.
        """
        return self._reset()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _reset(self) -> Optional[OpId]:
        """End the operation in flight, if any, and return its id.

        The whole op state goes, however the op ended: leftover
        ``_retries`` would shorten the next operation's retry budget,
        and a phantom ``_outstanding`` would refuse it."""
        op = self._outstanding
        self._outstanding = None
        self._message = None
        self._retries = 0
        return op

    def _begin(self) -> OpId:
        if self._outstanding is not None:
            raise ProtocolError(
                f"client {self.client_id} already has {self._outstanding} in flight"
            )
        op = OpId(self.client_id, self._seq)
        self._seq += 1
        self._outstanding = op
        return op

    def _issue(self) -> list[Effect]:
        return [SendTo(self.current_server, self._message, self.config.client_timeout)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClientProtocol {self.client_id} outstanding={self._outstanding}>"
