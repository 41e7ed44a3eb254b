#!/usr/bin/env python3
"""Documentation checks for CI (stdlib only).

Two checks, both mirroring tests so failures are reproducible
locally:

1. Broken intra-repo markdown links: every ``[text](target)`` in a
   tracked ``*.md`` file whose target is not an external URL or a
   pure anchor must resolve to an existing file or directory
   (relative to the markdown file; absolute-style ``/path`` targets
   resolve from the repo root). Anchor fragments are stripped.

2. CLI flag drift (the same rule as ``tests/cli/test_cli_docs.cc``):
   the set of ``--long-flag`` tokens in docs/CLI.md must equal the
   union of the tokens in the parser sources, in both directions.

Exit status: 0 when clean, 1 with one line per problem otherwise.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

FLAG_PATTERN = re.compile(r"--[a-z][a-z0-9-]*")
FLAG_SOURCES = [
    "src/cli/options.cc",
    "src/cli/gaia_serve.cc",
    "bench/bench_common.h",
    "bench/resilience_sweep.cc",
]
FLAG_DOC = "docs/CLI.md"

# [text](target) — excluding images and nested brackets in text.
LINK_PATTERN = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")

SKIP_DIRS = {".git", "build", "bench_results", "gaia_results"}


def markdown_files() -> list[Path]:
    files = []
    for path in REPO.rglob("*.md"):
        if not SKIP_DIRS.intersection(p.name for p in path.parents):
            files.append(path)
    return sorted(files)


def check_links() -> list[str]:
    problems = []
    for md in markdown_files():
        for target in LINK_PATTERN.findall(md.read_text()):
            if re.match(r"[a-z]+://|mailto:", target):
                continue  # external
            target = target.split("#", 1)[0]
            if not target:
                continue  # pure anchor into the same file
            base = REPO if target.startswith("/") else md.parent
            resolved = (base / target.lstrip("/")).resolve()
            if not resolved.exists():
                problems.append(
                    f"{md.relative_to(REPO)}: broken link "
                    f"-> {target}"
                )
    return problems


def check_flags() -> list[str]:
    documented = set(
        FLAG_PATTERN.findall((REPO / FLAG_DOC).read_text())
    )
    accepted: dict[str, str] = {}
    for source in FLAG_SOURCES:
        for flag in FLAG_PATTERN.findall(
            (REPO / source).read_text()
        ):
            accepted.setdefault(flag, source)

    problems = []
    for flag, source in sorted(accepted.items()):
        if flag not in documented:
            problems.append(
                f"{FLAG_DOC}: {flag} (accepted by {source}) is "
                "undocumented"
            )
    for flag in sorted(documented - accepted.keys()):
        problems.append(
            f"{FLAG_DOC}: {flag} is documented but no parser "
            "accepts it"
        )
    return problems


def main() -> int:
    problems = check_links() + check_flags()
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} documentation problem(s)")
        return 1
    print("docs OK: links resolve, CLI flags in sync")
    return 0


if __name__ == "__main__":
    sys.exit(main())
