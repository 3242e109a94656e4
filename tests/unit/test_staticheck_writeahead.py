"""Red/green/pragma fixtures for ``writeahead.host-bypass``."""

from __future__ import annotations

from tests.staticheck_helpers import rules_of, run_tree


def test_non_durable_class_is_out_of_scope(tmp_path):
    """Only code that holds a protocol (``<x>.proto`` in hosts,
    ``<x>.core`` in backends and policies) is scoped; a class storing
    to its own attribute of a covered name is not."""
    violations = run_tree(
        tmp_path,
        {
            "repro/core/plain.py": (
                "class Stats:\n"
                "    def bump(self):\n"
                "        self.pending = 1\n"
                "        return self.pending\n"
            )
        },
    )
    assert violations == []


def test_value_backend_store_to_the_register_flagged(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/core/values.py": (
                "class Backend:\n"
                "    def repair(self, share):\n"
                "        self.core.frag_tag = None\n"
                "        self.core._install(self.core.tag, share)\n"
            )
        },
    )
    assert rules_of(violations) == ["writeahead.host-bypass"]
    assert "self.core.frag_tag" in violations[0].message


def test_view_policy_store_to_membership_state_flagged(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/core/views.py": (
                "class Policy:\n"
                "    def install(self, commit, ring):\n"
                "        self.core.installed_epoch = commit.epoch\n"
                "        self.core._install_view(ring, commit)\n"
            )
        },
    )
    assert rules_of(violations) == ["writeahead.host-bypass"]
    assert "self.core.installed_epoch" in violations[0].message


def test_host_bypass_flagged(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/runtime/host.py": (
                "def reset(host):\n"
                "    host.proto.pending = set()\n"
            )
        },
    )
    assert rules_of(violations) == ["writeahead.host-bypass"]


def test_host_calling_handler_passes(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/runtime/host.py": (
                "def reset(host):\n"
                "    replies = host.proto.on_reset()\n"
                "    return replies\n"
            )
        },
    )
    assert violations == []


def test_pragma_suppresses_writeahead(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/runtime/host.py": (
                "def reset(host):\n"
                "    # staticheck: allow(writeahead.host-bypass)"
                " -- a test double, never a live protocol\n"
                "    host.proto.pending = set()\n"
            )
        },
    )
    assert violations == []
