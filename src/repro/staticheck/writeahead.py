"""writeahead.host-bypass — snapshot-covered protocol state changes only
inside the protocol class.

PR 3's crash-recovery contract: a server may only expose an effect (ack
a client, forward a ring message) after the state that produced it is in
the write-ahead snapshot.  ``ServerProtocol`` keeps it by construction:
outputs leave only through its three output methods (``drain_replies``,
``next_directed_message``, ``next_ring_batch``), each of which saves a
dirty state first, and ``tests/integration/test_write_ahead.py`` checks
after every output of every chaos profile that the saved snapshot equals
the live one.

What neither can see is a store the class never hears about: code that
merely *holds* a protocol object — hosts and runtimes (``<x>.proto``),
the value backends of ``repro/core/values.py`` and the view policies of
``repro/core/views.py`` (``<x>.core``) — assigning its covered
attributes directly would skip ``_mark_dirty()``.  This rule forbids
that.  Hosts go through the protocol's entry points; a backend goes
through the protocol's ``_install`` / ``_repair_stored`` and a policy
through ``_reroute`` / ``_install_view`` / ``_next_nonce``, which mark
the state dirty.
"""

from __future__ import annotations

import ast

from repro.staticheck.base import (
    Project,
    SourceFile,
    Violation,
    attr_chain,
    file_rule,
)

#: Attributes covered by the write-ahead snapshot (``ServerSnapshot``
#: in repro/core/durable.py): register state, completion bookkeeping,
#: the pending set, reconfiguration epoch/counter, and ring membership.
COVERED_ATTRS = frozenset(
    {
        "value",
        "tag",
        "frag_tag",
        "ts_seen",
        "watermark",
        "completed_ops",
        "completed_tags",
        "pending",
        "installed_epoch",
        "_reconfig_counter",
        "ring",
    }
)

#: Path prefix -> the attribute name its code holds a protocol by.
_HOLDER_SCOPES = {
    "repro/core/sharded.py": "proto",
    "repro/runtime/": "proto",
    "repro/core/values.py": "core",
    "repro/core/views.py": "core",
}


@file_rule("writeahead")
def check(sf: SourceFile, project: Project) -> list[Violation]:
    """Code that holds a protocol object must mutate its state only
    through the protocol's methods, never by assigning
    ``<x>.proto.<covered attr>`` (or a backend's or policy's
    ``<x>.core.<covered attr>``) directly."""
    if sf.tree is None:
        return []
    holders = {
        name for scope, name in _HOLDER_SCOPES.items() if sf.rel.startswith(scope)
    }
    if not holders:
        return []
    out: list[Violation] = []
    for node in ast.walk(sf.tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for target in targets:
            base = target.value if isinstance(target, ast.Subscript) else target
            if not isinstance(base, ast.Attribute):
                continue
            if base.attr not in COVERED_ATTRS:
                continue
            owner = base.value
            chain = attr_chain(owner)
            if chain is not None and holders & set(chain.split(".")):
                out.append(
                    Violation(
                        sf.rel,
                        node.lineno,
                        node.col_offset,
                        "writeahead.host-bypass",
                        f"direct store to protocol covered state "
                        f"'{chain}.{base.attr}' bypasses the write-ahead "
                        "persist discipline; call a protocol method instead",
                    )
                )
    return out
