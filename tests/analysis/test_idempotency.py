"""PRO008: federation code threads the allocate dedupe token through."""

from __future__ import annotations

from tests.analysis.conftest import rules_of


class TestTokenThreading:
    def test_tokenless_allocate_params_in_federation(self, lint):
        findings = lint({
            "src/repro/federation/router.py": """
                def split(params, take):
                    return AllocateParams(n_processes=take, ppn=params.ppn)
            """,
        })
        assert rules_of(findings) == ["PRO008"]
        assert "token" in findings[0].message

    def test_token_forwarding_allocate_params_is_clean(self, lint):
        assert lint({
            "src/repro/federation/router.py": """
                def split(params, take, sub):
                    return AllocateParams(n_processes=take, token=sub)
            """,
        }) == []

    def test_token_via_splat_is_trusted(self, lint):
        assert lint({
            "src/repro/federation/router.py": """
                def split(kwargs):
                    return AllocateParams(**kwargs)
            """,
        }) == []

    def test_tokenless_outside_federation_is_fine(self, lint):
        assert lint({
            "src/repro/broker/helper.py": """
                def probe():
                    return AllocateParams(n_processes=1)
            """,
        }) == []
