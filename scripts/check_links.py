#!/usr/bin/env python3
"""Offline markdown link checker for the CI `link-check` job.

Verifies, for every markdown file passed on the command line:

  * relative links point at files (or directories) that exist in the repo,
  * fragment links (`file.md#anchor`, `#anchor`) name a heading that is
    actually present in the target file, using GitHub's slug rules.

and, whatever the arguments, that every `*.md` name a Rust source under
`crates/`, `tests/` or `examples/` cites (in a comment, a doc string or a
message it prints) names a file that exists, relative to the repository
root or to the citing source.

External links (http/https/mailto) are intentionally not fetched — CI must
stay deterministic and offline-friendly; rot in outbound links is a review
concern, not a build gate.

Exit status: 0 when every link resolves, 1 otherwise (one line per broken
link).
"""

import re
import sys
from pathlib import Path

LINK = re.compile(r"(?<!!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
IMAGE = re.compile(r"!\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, spaces to dashes."""
    text = re.sub(r"[`*_]", "", heading.strip())
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    return text.lower().replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    body = CODE_FENCE.sub("", path.read_text(encoding="utf-8"))
    return {github_slug(m.group(1)) for m in HEADING.finditer(body)}


def check_file(md: Path, repo_root: Path) -> list[str]:
    errors = []
    body = CODE_FENCE.sub("", md.read_text(encoding="utf-8"))
    targets = [m.group(1) for m in LINK.finditer(body)]
    targets += [m.group(1) for m in IMAGE.finditer(body)]
    for target in targets:
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, fragment = target.partition("#")
        resolved = md if not path_part else (md.parent / path_part).resolve()
        if path_part and not resolved.exists():
            errors.append(f"{md}: broken link `{target}` (no such file)")
            continue
        if fragment and resolved.suffix == ".md":
            if fragment not in anchors_of(resolved):
                errors.append(f"{md}: broken anchor `{target}`")
    _ = repo_root
    return errors


MD_NAME = re.compile(r"(?<![\w./-])([\w./-]*\w\.md)\b")
SOURCE_DIRS = ("crates", "tests", "examples")


def check_sources(repo_root: Path) -> list[str]:
    errors = []
    for top in SOURCE_DIRS:
        for rs in sorted((repo_root / top).rglob("*.rs")):
            text = rs.read_text(encoding="utf-8")
            for lineno, line in enumerate(text.splitlines(), 1):
                for name in MD_NAME.findall(line):
                    if not ((repo_root / name).exists() or (rs.parent / name).exists()):
                        where = rs.relative_to(repo_root)
                        errors.append(f"{where}:{lineno}: cites `{name}` (no such file)")
    return errors


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: check_links.py FILE.md [FILE.md ...]", file=sys.stderr)
        return 2
    repo_root = Path.cwd()
    errors = []
    checked = 0
    for name in argv:
        md = Path(name)
        if not md.exists():
            errors.append(f"{md}: file listed for checking does not exist")
            continue
        checked += 1
        errors.extend(check_file(md, repo_root))
    errors.extend(check_sources(repo_root))
    for line in errors:
        print(line, file=sys.stderr)
    print(f"checked {checked} files and the Rust sources: {len(errors)} broken links")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
