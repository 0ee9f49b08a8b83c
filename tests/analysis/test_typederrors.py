"""ERR rules: justified broad catches, every ErrorCode produced."""

from __future__ import annotations

from tests.analysis.conftest import rules_of


class TestBroadExcept:
    def test_bare_except_flagged(self, lint):
        findings = lint({
            "src/repro/util/helpers.py": """
                def swallow(fn):
                    try:
                        fn()
                    except:
                        pass
            """,
        })
        assert rules_of(findings) == ["ERR001"]

    def test_except_exception_flagged(self, lint):
        findings = lint({
            "src/repro/util/helpers.py": """
                def swallow(fn):
                    try:
                        fn()
                    except Exception:
                        pass
            """,
        })
        assert rules_of(findings) == ["ERR002"]

    def test_broad_name_inside_tuple_flagged(self, lint):
        findings = lint({
            "src/repro/util/helpers.py": """
                def swallow(fn):
                    try:
                        fn()
                    except (ValueError, Exception):
                        pass
            """,
        })
        assert rules_of(findings) == ["ERR002"]

    def test_narrow_except_ok(self, lint):
        findings = lint({
            "src/repro/util/helpers.py": """
                def swallow(fn):
                    try:
                        fn()
                    except (ValueError, OSError):
                        pass
            """,
        })
        assert findings == []

    def test_noqa_with_rationale_suppresses(self, lint):
        findings = lint({
            "src/repro/util/helpers.py": """
                def swallow(fn):
                    try:
                        fn()
                    except Exception:  # noqa: BLE001 — daemon loop must survive any handler bug
                        pass
            """,
        })
        assert findings == []

    def test_noqa_without_rationale_does_not_suppress(self, lint):
        findings = lint({
            "src/repro/util/helpers.py": """
                def swallow(fn):
                    try:
                        fn()
                    except Exception:  # noqa: BLE001
                        pass
            """,
        })
        assert rules_of(findings) == ["ERR002"]
        # the hint points at the missing rationale, not generic advice
        assert "rationale" in findings[0].hint


# ----------------------------------------------------------------------
# ErrorCode exhaustiveness cross-check (project rule)

_PROTOCOL = """
    class ErrorCode:
        BUSY = "BUSY"
        WAIT = "WAIT"
"""


class TestErrorCodeExhaustiveness:
    def corpus(self, **overrides):
        files = {
            "src/repro/broker/protocol.py": _PROTOCOL,
            "src/repro/broker/service.py": """
                from repro.broker.protocol import ErrorCode

                def deny():
                    raise ValueError(ErrorCode.BUSY)

                def backoff():
                    return "WAIT"
            """,
        }
        files.update(overrides)
        return files

    def test_fully_wired_corpus_is_clean(self, lint):
        assert lint(self.corpus()) == []

    def test_enum_body_is_not_production_evidence(self, lint):
        # `BUSY = "BUSY"` in the enum itself must not count: with no
        # server-side producer both codes go ERR003.
        files = self.corpus()
        files["src/repro/broker/service.py"] = "x = 1\n"
        findings = lint(files)
        assert rules_of(findings) == ["ERR003", "ERR003"]

    def test_unproduced_code_flagged(self, lint):
        files = self.corpus()
        files["src/repro/broker/service.py"] = """
            from repro.broker.protocol import ErrorCode

            def deny():
                raise ValueError(ErrorCode.BUSY)
        """
        findings = lint(files)
        assert rules_of(findings) == ["ERR003"]
        assert "WAIT" in findings[0].message

    def test_corpus_without_broker_is_exempt(self, lint):
        findings = lint({
            "src/repro/util/math.py": "def double(x):\n    return 2 * x\n",
        })
        assert findings == []
