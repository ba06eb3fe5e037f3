#!/usr/bin/env python
"""Documentation checks: links, reachability, executable docs, bench figures.

Four guarantees, enforced in CI (the ``docs`` job):

1. **Every intra-repository markdown link resolves.**  All relative
   links in ``README.md``, ``DESIGN.md``, ``EXPERIMENTS.md`` and
   ``docs/*.md`` must point at files that exist (anchors and external
   ``http(s)``/``mailto`` targets are skipped).

2. **No orphaned documentation.**  Every checked markdown file must be
   reachable from ``README.md`` by following relative markdown links —
   a handbook nobody links to is a handbook nobody reads.  Repository
   meta-files (``ROADMAP.md``, ``CHANGES.md``, ...) are exempt.

3. **Executable docs run.**  The plain ```` ```python ```` code blocks
   of ``docs/tutorial.md`` and ``docs/serving.md`` are executed *in
   order, in one shared namespace per document*, from a temporary
   working directory — each document is a continuous session, so
   renamed APIs or undefined variables fail CI instead of rotting on
   the page.  Blocks tagged ```` ```python no-run ```` (those needing
   external files or long-running servers) are only compile-checked.

4. **Quoted benchmark figures match the committed report.**  A figure
   taken from ``BENCH_throughput.json`` carries its JSON key in an HTML
   comment right after it, e.g. ``**2.21×**<!-- bench:
   speedups.single_query_engine_vs_seed -->``.  The tag may scale a key
   (``gateway.open_loop.latency_s.p50*1000`` for milliseconds), divide
   two keys (``seed_baseline.total_s / engine_sequential.total_s``) and
   index lists by position.  The number printed before the tag must
   equal the report's value rounded to the printed precision, so a
   re-run benchmark whose numbers move fails CI until the prose follows.

Usage::

    PYTHONPATH=src python tools/check_docs.py [--skip-tutorial]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Markdown link/image targets: ``[text](target)`` / ``![alt](target)``.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Fenced code blocks with their info string.
_FENCE_RE = re.compile(r"^```([^\n`]*)\n(.*?)^```\s*$", re.MULTILINE | re.DOTALL)

_EXTERNAL = ("http://", "https://", "mailto:")

#: The committed benchmark report that tagged figures quote.
BENCH_REPORT = REPO_ROOT / "BENCH_throughput.json"

#: A benchmark tag: ``<!-- bench: EXPR -->`` right after a quoted figure.
_BENCH_TAG_RE = re.compile(r"<!--\s*bench:\s*(.*?)\s*-->")

#: A printed number: space-grouped thousands ("53 200") or plain digits,
#: with an optional decimal part.
_NUMBER_RE = re.compile(r"\d{1,3}(?: \d{3})+(?:\.\d+)?|\d+(?:\.\d+)?")

#: Documents whose ```python blocks are executed as separate sessions.
EXECUTABLE_DOCS = ("docs/tutorial.md", "docs/serving.md")

#: Repository meta-files that need not be linked from README.md.
ORPHAN_EXEMPT = {
    "ROADMAP.md",
    "CHANGES.md",
    "ISSUE.md",
    "PAPER.md",
    "PAPERS.md",
    "SNIPPETS.md",
}


def doc_files() -> list[Path]:
    files = [
        REPO_ROOT / name
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")
        if (REPO_ROOT / name).exists()
    ]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return files


def _markdown_targets(doc: Path) -> list[Path]:
    """Resolved intra-repo markdown files linked from ``doc``."""
    targets = []
    for match in _LINK_RE.finditer(doc.read_text(encoding="utf-8")):
        target = match.group(1)
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        path_part = target.split("#", 1)[0]
        if not path_part or not path_part.endswith(".md"):
            continue
        resolved = (doc.parent / path_part).resolve()
        if resolved.exists():
            targets.append(resolved)
    return targets


def check_links() -> list[str]:
    """Every relative markdown link must resolve from its file's directory."""
    errors = []
    for doc in doc_files():
        text = doc.read_text(encoding="utf-8")
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                errors.append(
                    f"{doc.relative_to(REPO_ROOT)}: broken link "
                    f"'{target}' (resolved to {resolved})"
                )
    return errors


def check_reachability() -> list[str]:
    """Every checked doc must be reachable from README.md via links."""
    readme = REPO_ROOT / "README.md"
    if not readme.exists():
        return ["README.md missing — cannot check documentation reachability"]
    reachable = {readme}
    frontier = [readme]
    while frontier:
        doc = frontier.pop()
        for target in _markdown_targets(doc):
            if target not in reachable:
                reachable.add(target)
                frontier.append(target)
    errors = []
    for doc in doc_files():
        rel = doc.relative_to(REPO_ROOT)
        if doc in reachable or str(rel) in ORPHAN_EXEMPT:
            continue
        errors.append(
            f"{rel}: orphaned — not reachable from README.md by markdown links"
        )
    return errors


def doc_blocks(relpath: str) -> list[tuple[str, str, int]]:
    """``(tag, source, line)`` per fenced block of a document."""
    text = (REPO_ROOT / relpath).read_text(encoding="utf-8")
    blocks = []
    for match in _FENCE_RE.finditer(text):
        info = match.group(1).strip()
        line = text[: match.start()].count("\n") + 2  # first code line
        blocks.append((info, match.group(2), line))
    return blocks


def check_executable(relpath: str) -> list[str]:
    """Execute runnable blocks sequentially; compile-check ``no-run`` ones.

    Each document runs in its own namespace and temporary working
    directory: the tutorial and the serving handbook are independent
    sessions.
    """
    errors = []
    namespace: dict = {"__name__": "__" + Path(relpath).stem + "__"}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="repro-docs-") as workdir:
        os.chdir(workdir)  # docs write files (archive.jsonl, compare.svg)
        try:
            for info, source, line in doc_blocks(relpath):
                label = f"{relpath}:{line}"
                if info == "python no-run":
                    try:
                        compile(source, label, "exec")
                    except SyntaxError as exc:
                        errors.append(f"{label}: no-run block does not compile: {exc}")
                    continue
                if info != "python":
                    continue  # shell/other fences are not executed
                print(f"running {label} ...", flush=True)
                try:
                    exec(compile(source, label, "exec"), namespace)
                except Exception as exc:  # report and stop: later blocks depend on it
                    errors.append(f"{label}: {type(exc).__name__}: {exc}")
                    break
        finally:
            os.chdir(cwd)
    return errors


def bench_value(report: dict, expr: str) -> float:
    """Evaluate a tag expression: ``KEY[*SCALE]`` or ``KEY[*SCALE] / KEY``.

    A key is a dotted path into the report; list elements are addressed by
    their index.
    """

    def term(text: str) -> float:
        key, __, scale = text.partition("*")
        value = report
        for part in key.strip().split("."):
            value = value[int(part)] if isinstance(value, list) else value[part]
        return float(value) * (float(scale) if scale else 1.0)

    numerator, __, denominator = expr.partition("/")
    value = term(numerator)
    return value / term(denominator) if denominator else value


def check_bench_figures() -> tuple[list[str], int]:
    """Every tagged figure must print its report value at its precision.

    Returns ``(errors, number of tagged figures)``.
    """
    report = json.loads(BENCH_REPORT.read_text(encoding="utf-8"))
    errors = []
    count = 0
    for doc in doc_files():
        lines = doc.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, 1):
            for tag in _BENCH_TAG_RE.finditer(line):
                count += 1
                expr = tag.group(1)
                label = f"{doc.relative_to(REPO_ROOT)}:{lineno}"
                before = _BENCH_TAG_RE.sub("", line[: tag.start()])
                numbers = _NUMBER_RE.findall(before)
                if not numbers:
                    errors.append(f"{label}: bench tag '{expr}' follows no number")
                    continue
                printed = numbers[-1].replace(" ", "")
                try:
                    value = bench_value(report, expr)
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    errors.append(
                        f"{label}: bench tag '{expr}' does not evaluate against "
                        f"{BENCH_REPORT.name}: {type(exc).__name__}: {exc}"
                    )
                    continue
                decimals = len(printed.partition(".")[2])
                expected = f"{value:.{decimals}f}"
                if printed != expected:
                    errors.append(
                        f"{label}: prints {printed} but {BENCH_REPORT.name} "
                        f"gives {expected} for '{expr}'"
                    )
    return errors, count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--skip-tutorial",
        action="store_true",
        help="skip the executable docs (fast; no scenario build)",
    )
    args = parser.parse_args(argv)

    errors = check_links()
    print(f"link check: {len(doc_files())} files, {len(errors)} broken link(s)")
    orphans = check_reachability()
    print(f"reachability check: {len(orphans)} orphaned file(s)")
    errors.extend(orphans)
    drift, tagged = check_bench_figures()
    print(f"bench figure check: {tagged} tagged figure(s), {len(drift)} drifted")
    errors.extend(drift)
    if not args.skip_tutorial:
        for relpath in EXECUTABLE_DOCS:
            if (REPO_ROOT / relpath).exists():
                errors.extend(check_executable(relpath))
    for error in errors:
        print(f"ERROR: {error}", file=sys.stderr)
    if not errors:
        print("docs OK")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
