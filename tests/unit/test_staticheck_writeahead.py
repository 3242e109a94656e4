"""Red/green/pragma fixtures for the writeahead.* rule family."""

from __future__ import annotations

from tests.staticheck_helpers import rules_of, run_tree

#: A minimal durable protocol class (defines _maybe_persist, so the rule
#: holds it to the write-ahead discipline); ``pending`` and ``value`` are
#: snapshot-covered attributes.
_HEADER = (
    "class Proto:\n"
    "    def _maybe_persist(self):\n"
    "        pass\n"
    "\n"
    "    def _mark_dirty(self):\n"
    "        self._dirty = True\n"
    "\n"
)


def test_mutation_without_persist_flagged(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/core/proto.py": _HEADER + (
                "    def on_write(self, value):\n"
                "        self.value = value\n"
                "        return [value]\n"
            )
        },
    )
    assert rules_of(violations) == ["writeahead.persist-before-output"]
    assert "Proto.on_write" in violations[0].message


def test_persist_before_return_passes(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/core/proto.py": _HEADER + (
                "    def on_write(self, value):\n"
                "        self.value = value\n"
                "        self._maybe_persist()\n"
                "        return [value]\n"
            )
        },
    )
    assert violations == []


def test_one_dirty_branch_is_enough(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/core/proto.py": _HEADER + (
                "    def on_write(self, value):\n"
                "        if value is None:\n"
                "            return []\n"
                "        self.pending.add(value)\n"
                "        if value > 0:\n"
                "            self._maybe_persist()\n"
                "        return [value]\n"
            )
        },
    )
    assert rules_of(violations) == ["writeahead.persist-before-output"]


def test_raise_is_not_an_output(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/core/proto.py": _HEADER + (
                "    def on_write(self, value):\n"
                "        self.value = value\n"
                "        raise RuntimeError('crashed before replying')\n"
            )
        },
    )
    assert violations == []


def test_dirty_reaches_output_through_helper_calls(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/core/proto.py": _HEADER + (
                "    def _absorb(self, value):\n"
                "        self.pending.add(value)\n"
                "\n"
                "    def on_write(self, value):\n"
                "        self._absorb(value)\n"
                "        return [value]\n"
            )
        },
    )
    assert rules_of(violations) == ["writeahead.persist-before-output"]


def test_covered_attr_passed_to_mutating_helper(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/core/proto.py": _HEADER + (
                "    def _advance(self, table, key):\n"
                "        table[key] = True\n"
                "\n"
                "    def on_commit(self, key):\n"
                "        self._advance(self.completed_ops, key)\n"
                "        return []\n"
            )
        },
    )
    assert rules_of(violations) == ["writeahead.persist-before-output"]


def test_private_methods_may_return_dirty(tmp_path):
    violations = run_tree(
        tmp_path,
        {
            "repro/core/proto.py": _HEADER + (
                "    def _stage(self, value):\n"
                "        self.pending.add(value)\n"
                "        return value\n"
                "\n"
                "    def on_write(self, value):\n"
                "        staged = self._stage(value)\n"
                "        self._maybe_persist()\n"
                "        return [staged]\n"
            )
        },
    )
    assert violations == []


def test_non_durable_class_is_out_of_scope(tmp_path):
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


def test_value_backend_call_counts_as_a_mutation(tmp_path):
    """A backend hook may come back through the protocol's own register
    mutators, which the intra-class analysis cannot follow — so a handler
    must persist after calling one."""
    handler = (
        "    def on_fragment(self, message):\n"
        "        self.values.on_message(message)\n"
        "{persist}"
        "        return []\n"
    )
    red = run_tree(
        tmp_path / "red", {"repro/core/proto.py": _HEADER + handler.format(persist="")}
    )
    assert rules_of(red) == ["writeahead.persist-before-output"]
    green = run_tree(
        tmp_path / "green",
        {
            "repro/core/proto.py": _HEADER
            + handler.format(persist="        self._maybe_persist()\n")
        },
    )
    assert green == []


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


def test_view_policy_call_counts_as_a_mutation(tmp_path):
    """A policy hook may come back through ``_install_view`` or
    ``_next_nonce``; like a backend hook, the handler that calls one must
    persist before it returns."""
    handler = (
        "    def on_suspect(self, peer):\n"
        "        self.views.on_suspect(peer)\n"
        "{persist}"
        "        return []\n"
    )
    red = run_tree(
        tmp_path / "red", {"repro/core/proto.py": _HEADER + handler.format(persist="")}
    )
    assert rules_of(red) == ["writeahead.persist-before-output"]
    green = run_tree(
        tmp_path / "green",
        {
            "repro/core/proto.py": _HEADER
            + handler.format(persist="        self._maybe_persist()\n")
        },
    )
    assert green == []


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
            "repro/core/proto.py": _HEADER + (
                "    # staticheck: allow(writeahead.persist-before-output)"
                " -- replies here carry no durable effect\n"
                "    def on_write(self, value):\n"
                "        self.value = value\n"
                "        return [value]\n"
            )
        },
    )
    assert violations == []
