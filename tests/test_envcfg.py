"""The REPRO_* environment-variable registry and typed accessors."""

import pytest

from repro import envcfg


class TestRegistry:
    def test_every_var_declared_once(self):
        names = [v.name for v in envcfg.ENV_VARS]
        assert len(names) == len(set(names))
        assert envcfg.registry() == {v.name: v for v in envcfg.ENV_VARS}

    def test_declarations_complete(self):
        for var in envcfg.ENV_VARS:
            assert var.name.startswith("REPRO_")
            assert var.kind in ("bool", "int", "path")
            assert var.description and var.default and var.pinned_by

    def test_call_site_names_preserved(self):
        """Legacy import surfaces still expose the env-var names."""
        from repro.analysis.verifier import OPT_OUT_ENV

        assert OPT_OUT_ENV == envcfg.REPRO_NO_VERIFY.name


class TestAccessors:
    def test_get_bool_unset_uses_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAST", raising=False)
        assert envcfg.get_bool(envcfg.REPRO_FAST, True) is True
        assert envcfg.get_bool(envcfg.REPRO_FAST, False) is False

    @pytest.mark.parametrize("raw", ["0", "false", "OFF", " no "])
    def test_get_bool_falsy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_FAST", raw)
        assert envcfg.get_bool(envcfg.REPRO_FAST, True) is False

    @pytest.mark.parametrize("raw", ["1", "true", "yes", "anything"])
    def test_get_bool_truthy_spellings(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_FAST", raw)
        assert envcfg.get_bool(envcfg.REPRO_FAST, False) is True

    def test_get_int(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert envcfg.get_int(envcfg.REPRO_JOBS, 1) == 1
        monkeypatch.setenv("REPRO_JOBS", " 8 ")
        assert envcfg.get_int(envcfg.REPRO_JOBS, 1) == 8
        monkeypatch.setenv("REPRO_JOBS", "")
        assert envcfg.get_int(envcfg.REPRO_JOBS, 3) == 3

    def test_get_path(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_SPILL", raising=False)
        assert envcfg.get_path(envcfg.REPRO_TRACE_SPILL) is None
        monkeypatch.setenv("REPRO_TRACE_SPILL", "/tmp/x")
        assert envcfg.get_path(envcfg.REPRO_TRACE_SPILL) == "/tmp/x"

    def test_reads_happen_at_call_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        assert envcfg.fast_path_enabled()
        monkeypatch.setenv("REPRO_FAST", "0")
        assert not envcfg.fast_path_enabled()


class TestDerivedKnobs:
    def test_fast_path_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAST", raising=False)
        assert envcfg.fast_path_enabled()

    def test_verification_opt_out(self, monkeypatch):
        monkeypatch.delenv("REPRO_NO_VERIFY", raising=False)
        assert envcfg.verification_enabled()
        monkeypatch.setenv("REPRO_NO_VERIFY", "0")
        assert envcfg.verification_enabled()
        monkeypatch.setenv("REPRO_NO_VERIFY", "1")
        assert not envcfg.verification_enabled()

    def test_default_jobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert envcfg.default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert envcfg.default_jobs() == 4
