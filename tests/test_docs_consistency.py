"""The docs-consistency gate, as a pytest (CI also runs the script)."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CHECKER = REPO / "tools" / "check_docs.py"


def test_docs_in_sync_with_tree():
    proc = subprocess.run(
        [sys.executable, str(CHECKER)], capture_output=True, text=True,
    )
    assert proc.returncode == 0, (
        f"tools/check_docs.py failed:\n{proc.stderr}"
    )


def test_architecture_doc_exists_and_is_linked():
    arch = REPO / "docs" / "ARCHITECTURE.md"
    assert arch.exists()
    assert "docs/ARCHITECTURE.md" in (REPO / "README.md").read_text()


def load_checker():
    spec = importlib.util.spec_from_file_location("check_docs", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestModuleRowIdentifiers:
    def test_stale_identifier_flagged(self, tmp_path):
        (tmp_path / "mem").mkdir()
        (tmp_path / "mem" / "cache.py").write_text(
            "class Cache:\n    def access_batch(self): ...\n"
        )
        doc = ("| `mem/cache.py` | `Cache.access_batch` walk (wider "
               "than `_WAVE_MIN_VEC`, `REPRO_VEC`, `access`) |\n")
        problems = load_checker().check_module_identifiers(doc, tmp_path)
        assert len(problems) == 1
        assert "`_WAVE_MIN_VEC`" in problems[0]

    def test_dotted_name_needs_both_parts(self, tmp_path):
        (tmp_path / "events.py").write_text("class Command:\n    pass\n")
        doc = "| `events.py` | `Command.arm` |\n"
        problems = load_checker().check_module_identifiers(doc, tmp_path)
        assert problems and "`Command.arm`" in problems[0]

    def test_identifier_rules(self):
        rows = load_checker().row_identifiers(
            "`cycles_to_ps` `OffloadEngine` `Command.arm` `derive_machine()` "
            "`REPRO_FAST` `access` `sim/system.py` `run(until_ps)` `repro.obs`"
        )
        assert rows == ["cycles_to_ps", "OffloadEngine", "Command.arm",
                        "derive_machine"]
