#!/usr/bin/env python3
"""Docs-consistency checker (CI gate; also run as a pytest).

These invariants keep the documentation layer honest:

1. Every module under ``src/repro/`` is named in ``docs/ARCHITECTURE.md``
   — a module file as its relative path (``sim/system.py``), a package's
   ``__init__.py`` as its directory prefix (``sim/``). Every code
   identifier an ARCHITECTURE.md module row names in backticks occurs in
   that module's source, so a row cannot outlive the code it describes
   (see :func:`check_module_identifiers`).
2. Every ``REPRO_*`` environment variable referenced anywhere under
   ``src/repro/`` is declared in :mod:`repro.envcfg` and documented in
   the README's environment-variable table (name, default and pinning
   tests all present).
3. Every builtin machine document and every machine-schema field
   (:func:`repro.machine.schema.schema_fields`) is documented in the
   README's machine-description section.
4. Every operator-visible surface of the sweep service is documented in
   ``docs/SERVICE.md``: each endpoint in
   :data:`repro.serve.protocol.ENDPOINTS` (as ``METHOD /path``), each
   job lifecycle state, each ``python -m repro.serve`` CLI flag, and
   each ``REPRO_SERVE_*`` environment variable — and the README links
   the guide.

Exit status 0 when all hold; 1 with a per-violation listing otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
ARCH = REPO / "docs" / "ARCHITECTURE.md"
README = REPO / "README.md"

# trailing [A-Z0-9]: docstrings refer to the variable family as
# ``REPRO_SERVE_*``, which is a glob, not a variable name
ENV_RE = re.compile(r"\bREPRO_[A-Z0-9_]*[A-Z0-9]\b")


def module_tokens() -> list[str]:
    """Documentation tokens for every module file under src/repro/."""
    tokens = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if path.name == "__init__.py":
            pkg = rel[: -len("__init__.py")]
            if pkg:  # the top-level package is the document's subject
                tokens.append(pkg)
        else:
            tokens.append(rel)
    return tokens


def check_architecture() -> list[str]:
    if not ARCH.exists():
        return [f"missing {ARCH.relative_to(REPO)}"]
    text = ARCH.read_text(encoding="utf-8")
    return [
        f"docs/ARCHITECTURE.md does not mention `{tok}`"
        for tok in module_tokens()
        if tok not in text
    ]


#: an ARCHITECTURE.md module row: ``| `sim/system.py` | role |``
ARCH_ROW_RE = re.compile(r"^\|\s*`([^`|]+\.py)`\s*\|(.*)\|\s*$")
IDENT_RE = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def is_code_identifier(token: str) -> bool:
    """Names a row can only mean as code: a name with an underscore, a
    CamelCase name, or a dotted ``Class.attr``; ``REPRO_*`` variables
    are checked against the README instead."""
    if token.startswith("REPRO_"):
        return False
    if "." in token:
        return token[0].isupper()
    return "_" in token or re.search(r"[a-z][A-Z]", token) is not None


def row_identifiers(role: str) -> list[str]:
    """Backticked code identifiers in a module row's role text
    (a trailing ``()`` call marker is dropped)."""
    out = []
    for span in re.findall(r"`([^`]+)`", role):
        token = span[:-2] if span.endswith("()") else span
        if IDENT_RE.fullmatch(token) and is_code_identifier(token):
            out.append(token)
    return out


def check_module_identifiers(text: str | None = None,
                             src: Path = SRC) -> list[str]:
    """Every backticked identifier in an ARCHITECTURE.md module row
    occurs, each dotted part as a whole word, in that module's source."""
    if text is None:
        text = ARCH.read_text(encoding="utf-8")
    problems = []
    for line in text.splitlines():
        m = ARCH_ROW_RE.match(line)
        if not m or not (src / m.group(1)).is_file():
            continue
        module = m.group(1)
        source = (src / module).read_text(encoding="utf-8")
        for token in row_identifiers(m.group(2)):
            if not all(re.search(rf"\b{re.escape(part)}\b", source)
                       for part in token.split(".")):
                problems.append(f"docs/ARCHITECTURE.md row `{module}` "
                                f"names `{token}`, which is not in "
                                f"src/repro/{module}")
    return problems


def env_vars_in_source() -> set[str]:
    found = set()
    for path in SRC.rglob("*.py"):
        found |= set(ENV_RE.findall(path.read_text(encoding="utf-8")))
    return found


def check_env_vars() -> list[str]:
    sys.path.insert(0, str(REPO / "src"))
    from repro import envcfg

    problems = []
    declared = {v.name for v in envcfg.ENV_VARS}
    for name in sorted(env_vars_in_source() - declared):
        problems.append(f"{name} is read in src/ but not declared in "
                        f"repro/envcfg.py")

    readme = README.read_text(encoding="utf-8")
    for var in envcfg.ENV_VARS:
        if f"`{var.name}`" not in readme:
            problems.append(f"{var.name} missing from the README "
                            f"environment-variable table")
            continue
        for pin in (p.strip() for p in var.pinned_by.split(",")):
            if pin and pin not in readme:
                problems.append(f"{var.name}: pinning test {pin} missing "
                                f"from the README table")
            if pin and not (REPO / pin).exists():
                problems.append(f"{var.name}: pinning test {pin} does "
                                f"not exist")
    return problems


def check_machine_docs() -> list[str]:
    sys.path.insert(0, str(REPO / "src"))
    from repro.machine import builtin_documents
    from repro.machine.schema import schema_fields

    readme = README.read_text(encoding="utf-8")
    problems = []
    for name in sorted(builtin_documents()):
        if f"`{name}`" not in readme:
            problems.append(f"builtin machine document {name} missing "
                            f"from the README machine-description section")
    for field in schema_fields():
        if f"`{field}`" not in readme:
            problems.append(f"machine schema field {field} missing from "
                            f"the README schema reference")
    return problems


def check_service_docs() -> list[str]:
    sys.path.insert(0, str(REPO / "src"))
    from repro import envcfg
    from repro.serve.__main__ import build_parser
    from repro.serve.protocol import ENDPOINTS, JOB_STATES

    service = REPO / "docs" / "SERVICE.md"
    if not service.exists():
        return [f"missing {service.relative_to(REPO)}"]
    text = service.read_text(encoding="utf-8")
    problems = []
    for ep in ENDPOINTS:
        if f"{ep.method} {ep.path}" not in text:
            problems.append(f"serve endpoint `{ep.method} {ep.path}` "
                            f"missing from docs/SERVICE.md")
    for state in JOB_STATES:
        if f"`{state}`" not in text:
            problems.append(f"job lifecycle state `{state}` missing "
                            f"from docs/SERVICE.md")
    for action in build_parser()._actions:
        for opt in action.option_strings:
            if opt.startswith("--") and f"`{opt}`" not in text:
                problems.append(f"serve CLI flag `{opt}` missing from "
                                f"docs/SERVICE.md")
    for var in envcfg.ENV_VARS:
        if var.name.startswith("REPRO_SERVE_") \
                and f"`{var.name}`" not in text:
            problems.append(f"{var.name} missing from docs/SERVICE.md")
    if "docs/SERVICE.md" not in README.read_text(encoding="utf-8"):
        problems.append("README does not link docs/SERVICE.md")
    return problems


def main() -> int:
    problems = (check_architecture() + check_module_identifiers()
                + check_env_vars()
                + check_machine_docs() + check_service_docs())
    for p in problems:
        print(f"check_docs: {p}", file=sys.stderr)
    if problems:
        print(f"check_docs: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    sys.path.insert(0, str(REPO / "src"))
    from repro.machine.schema import schema_fields
    from repro.serve.protocol import ENDPOINTS
    print("check_docs: OK "
          f"({len(module_tokens())} modules and their row identifiers, "
          f"README env table, "
          f"{len(schema_fields())} machine schema fields and "
          f"{len(ENDPOINTS)} serve endpoints in sync)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
