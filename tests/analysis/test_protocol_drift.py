"""PRO rules: OPS, dispatch ladders, and client verbs stay in sync."""

from __future__ import annotations

from tests.analysis.conftest import rules_of

_PROTOCOL = """
    OPS = ("allocate", "status")

    def parse_request(op):
        if op == "allocate":
            return 1
        if op == "status":
            return 2
"""

_SERVER = """
    def dispatch(request):
        if request.op == "allocate":
            return 1
        if request.op == "status":
            return 2
"""

_CLIENT = """
    _RETRY_SAFE_OPS = frozenset({"status"})

    class BrokerClient:
        def allocate(self):
            return self.call("allocate", {})

        def status(self):
            return self.call("status", {})
"""


def corpus(**overrides):
    files = {
        "src/repro/broker/protocol.py": _PROTOCOL,
        "src/repro/broker/server.py": _SERVER,
        "src/repro/broker/client.py": _CLIENT,
    }
    files.update(overrides)
    return files


class TestProtocolDrift:
    def test_synced_corpus_is_clean(self, lint):
        assert lint(corpus()) == []

    def test_op_missing_from_server_dispatch(self, lint):
        files = corpus()
        files["src/repro/broker/server.py"] = """
            def dispatch(request):
                if request.op == "allocate":
                    return 1
        """
        findings = lint(files)
        assert rules_of(findings) == ["PRO001"]
        assert "status" in findings[0].message
        assert findings[0].path.endswith("server.py")

    def test_op_missing_from_parser_ladder(self, lint):
        files = corpus()
        files["src/repro/broker/protocol.py"] = """
            OPS = ("allocate", "status")

            def parse_request(op):
                if op == "allocate":
                    return 1
        """
        findings = lint(files)
        assert rules_of(findings) == ["PRO001"]
        assert findings[0].path.endswith("protocol.py")

    def test_undeclared_dispatch_branch(self, lint):
        files = corpus()
        files["src/repro/broker/server.py"] = _SERVER + """
        def extra(request):
            if request.op == "zombie":
                return 3
        """
        findings = lint(files)
        assert rules_of(findings) == ["PRO003"]
        assert "zombie" in findings[0].message

    def test_op_missing_from_client(self, lint):
        files = corpus()
        files["src/repro/broker/client.py"] = """
            class BrokerClient:
                def allocate(self):
                    return self.call("allocate", {})
        """
        findings = lint(files)
        assert rules_of(findings) == ["PRO002"]
        assert "status" in findings[0].message

    def test_client_calling_unknown_op(self, lint):
        files = corpus()
        files["src/repro/broker/client.py"] = _CLIENT + """
        def probe(client):
            return client.call("zombie", {})
        """
        findings = lint(files)
        assert rules_of(findings) == ["PRO003"]

    def test_retry_safe_entry_outside_ops(self, lint):
        files = corpus()
        files["src/repro/broker/client.py"] = _CLIENT.replace(
            'frozenset({"status"})', 'frozenset({"status", "zombie"})'
        )
        findings = lint(files)
        assert rules_of(findings) == ["PRO004"]

    def test_match_statement_ladder_counts(self, lint):
        files = corpus()
        files["src/repro/broker/server.py"] = """
            def dispatch(request):
                op = request.op
                match op:
                    case "allocate":
                        return 1
                    case "status":
                        return 2
        """
        assert lint(files) == []

    def test_corpus_without_ops_is_exempt(self, lint):
        findings = lint({
            "src/repro/broker/protocol.py": "X = 1\n",
        })
        assert findings == []


_FED_PROTOCOL = """
    OPS = ("allocate", "status")
    FEDERATION_OPS = ("shards", "resolve")

    def parse_request(op):
        if op == "allocate":
            return 1
        if op == "status":
            return 2
        if op == "shards":
            return 3
        if op == "resolve":
            return 4
"""

_FED_DAEMON = """
    class FederationDaemon:
        async def _dispatch(self, request):
            if request.op == "shards":
                return 1
            if request.op == "resolve":
                return 2
            return await super()._dispatch(request)
"""

_FED_CLIENT = """
    _RETRY_SAFE_OPS = frozenset({"status", "shards", "resolve"})

    class BrokerClient:
        def allocate(self):
            return self.call("allocate", {})

        def status(self):
            return self.call("status", {})

        def shards(self):
            return self.call("shards")

        def resolve(self, lease_id):
            return self.call("resolve", {"lease_id": lease_id})
"""


def fed_corpus(**overrides):
    files = {
        "src/repro/broker/protocol.py": _FED_PROTOCOL,
        "src/repro/broker/server.py": _SERVER,
        "src/repro/broker/client.py": _FED_CLIENT,
        "src/repro/federation/daemon.py": _FED_DAEMON,
    }
    files.update(overrides)
    return files


class TestFederationDrift:
    def test_synced_federation_corpus_is_clean(self, lint):
        assert lint(fed_corpus()) == []

    def test_base_daemon_needs_no_federation_branches(self, lint):
        # _SERVER has no shards/resolve ladder — deliberately not drift.
        assert lint(fed_corpus()) == []

    def test_federation_op_missing_from_daemon(self, lint):
        files = fed_corpus()
        files["src/repro/federation/daemon.py"] = """
            class FederationDaemon:
                async def _dispatch(self, request):
                    if request.op == "shards":
                        return 1
                    return await super()._dispatch(request)
        """
        findings = lint(files)
        assert rules_of(findings) == ["PRO006"]
        assert "resolve" in findings[0].message
        assert findings[0].path.endswith("daemon.py")

    def test_federation_op_missing_from_parser(self, lint):
        files = fed_corpus()
        files["src/repro/broker/protocol.py"] = """
            OPS = ("allocate", "status")
            FEDERATION_OPS = ("shards", "resolve")

            def parse_request(op):
                if op == "allocate":
                    return 1
                if op == "status":
                    return 2
                if op == "shards":
                    return 3
        """
        findings = lint(files)
        assert rules_of(findings) == ["PRO006"]
        assert findings[0].path.endswith("protocol.py")

    def test_federation_op_missing_from_client(self, lint):
        files = fed_corpus()
        files["src/repro/broker/client.py"] = _FED_CLIENT.replace(
            """
        def resolve(self, lease_id):
            return self.call("resolve", {"lease_id": lease_id})
""",
            "",
        )
        findings = lint(files)
        assert rules_of(findings) == ["PRO007"]
        assert "resolve" in findings[0].message

    def test_retry_safe_may_name_federation_ops(self, lint):
        # shards/resolve in _RETRY_SAFE_OPS must NOT trip PRO004.
        assert lint(fed_corpus()) == []

    def test_undeclared_op_in_federation_daemon(self, lint):
        files = fed_corpus()
        files["src/repro/federation/daemon.py"] = _FED_DAEMON + """
        def extra(request):
            if request.op == "zombie":
                return 3
        """
        findings = lint(files)
        assert rules_of(findings) == ["PRO003"]
        assert "zombie" in findings[0].message

    def test_tokenless_allocate_params_in_federation(self, lint):
        files = fed_corpus()
        files["src/repro/federation/router.py"] = """
            def split(params, take):
                return AllocateParams(n_processes=take, ppn=params.ppn)
        """
        findings = lint(files)
        assert rules_of(findings) == ["PRO008"]
        assert "token" in findings[0].message

    def test_token_forwarding_allocate_params_is_clean(self, lint):
        files = fed_corpus()
        files["src/repro/federation/router.py"] = """
            def split(params, take, sub):
                return AllocateParams(n_processes=take, token=sub)
        """
        assert lint(files) == []

    def test_token_via_splat_is_trusted(self, lint):
        files = fed_corpus()
        files["src/repro/federation/router.py"] = """
            def split(kwargs):
                return AllocateParams(**kwargs)
        """
        assert lint(files) == []

    def test_tokenless_outside_federation_is_fine(self, lint):
        files = fed_corpus()
        files["src/repro/broker/helper.py"] = """
            def probe():
                return AllocateParams(n_processes=1)
        """
        assert lint(files) == []
