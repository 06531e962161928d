"""The ``repro lint`` subcommand.

Runs every registered rule over the given paths (default: ``src``),
gates the result against the committed findings baseline, and reports
in human-readable text or machine-readable JSON.

Exit codes: ``0`` — no findings beyond the baseline; ``1`` — new
findings (or, with ``--strict-stale``, retired debt the baseline still
records); ``2`` — usage errors (missing paths, malformed baseline).

``repro.cli`` builds every subcommand's parser, lint's included, so
this module imports the rule registry and the dataflow and hot-path
modules only when lint runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, TextIO

from repro import analysis
from repro.analysis.baseline import (
    DEFAULT_BASELINE_NAME,
    diff_against_baseline,
    fingerprints,
    write_baseline,
)
from repro.analysis.core import (
    FileContext,
    Finding,
    load_contexts,
    scan_paths,
)

if TYPE_CHECKING:
    from repro.analysis.hotpath import HotReportEntry


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (default: text); 'github' emits GitHub "
        "Actions ::error annotations",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE_NAME,
        help=f"findings baseline file (default: {DEFAULT_BASELINE_NAME})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline: every finding fails the gate",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to the current findings and exit 0",
    )
    parser.add_argument(
        "--strict-stale",
        action="store_true",
        help="also fail when the baseline records findings that no "
        "longer exist (keeps the committed debt honest)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="anchor for repo-relative paths in reports and fingerprints "
        "(default: current directory)",
    )
    parser.add_argument(
        "--hot-report",
        action="store_true",
        help="instead of linting, rank hot functions by (loop-nesting "
        "depth x live hot-path findings); honors --format text/json",
    )
    parser.add_argument(
        "--rules",
        action="store_true",
        help="list every registered rule with its scope and one-line "
        "description, then exit",
    )
    parser.add_argument(
        "--dataflow-report",
        action="store_true",
        help="instead of linting, print the dataflow evidence tables "
        "(per-cache key-vs-read sets, per-stream seed provenance); "
        "honors --format text/json",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="run per-file rules only on files changed vs git HEAD "
        "(plus untracked); program rules still scan the whole tree",
    )


def _rule_scope(rule_id: str) -> str:
    """Scope label for a finding's rule (synthetic rules like
    ``parse-error`` have no registered Rule object)."""
    rule = analysis.RULES_BY_ID.get(rule_id)
    return rule.scope_label if rule is not None else "repo-wide"


def _emit_json(
    findings: List[Finding],
    stream: TextIO,
    suppressed: Optional[Dict[str, int]] = None,
) -> None:
    """Machine-readable findings; schema documented in DESIGN §9.

    Version 2 adds the per-finding ``scope`` (where the rule can fire)
    and the top-level per-rule ``suppressed`` pragma counts, matching
    what the text path already surfaces.
    """
    entries = [
        {
            "path": finding.path,
            "line": finding.line,
            "column": finding.column,
            "rule": finding.rule,
            "scope": _rule_scope(finding.rule),
            "message": finding.message,
            "snippet": finding.snippet,
            "fingerprint": digest,
        }
        for finding, digest in fingerprints(findings)
    ]
    payload = {
        "version": 2,
        "findings": entries,
        "suppressed": dict(sorted((suppressed or {}).items())),
    }
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _github_escape(value: str) -> str:
    """Escape a message for a GitHub Actions workflow command."""
    return (
        value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
    )


def _github_escape_property(value: str) -> str:
    """Escape a workflow-command property value (file, title, ...)."""
    return _github_escape(value).replace(":", "%3A").replace(",", "%2C")


def _emit_github(findings: List[Finding], stream: TextIO) -> None:
    """``::error file=...,line=...::`` annotations, one per finding.

    Findings arrive already stable-sorted by (path, line, column,
    rule), so reruns on an unchanged tree produce byte-identical
    output and CI log diffs stay meaningful.
    """
    for finding in findings:
        stream.write(
            "::error "
            f"file={_github_escape_property(finding.path)},"
            f"line={finding.line},"
            f"col={finding.column},"
            f"title={_github_escape_property(f'repro lint: {finding.rule}')}"
            f"::{_github_escape(finding.message)}\n"
        )


def _emit_rules(stream: TextIO) -> None:
    """``repro lint --rules``: id, scope, description for every rule.

    The scope column tells pragma authors where a rule can fire:
    ``repo-wide``, ``engine-dirs(...)``, or ``hot-set`` (only inside
    functions reachable from the FAST engine entrypoints).
    """
    width = max(len(rule.id) for rule in analysis.ALL_RULES)
    scope_width = max(len(rule.scope_label) for rule in analysis.ALL_RULES)
    for rule in sorted(analysis.ALL_RULES, key=lambda rule: rule.id):
        stream.write(
            f"{rule.id:<{width}}  {rule.scope_label:<{scope_width}}  "
            f"{rule.description}\n"
        )


def _emit_hot_report(
    entries: List[HotReportEntry], fmt: str, stream: TextIO
) -> None:
    """Render the hot-function cost ranking as text or JSON."""
    if fmt == "json":
        json.dump(
            {
                "version": 1,
                "hot_functions": [
                    {
                        "qualname": entry.qualname,
                        "module": entry.module,
                        "path": entry.path,
                        "line": entry.line,
                        "root": entry.root,
                        "loop_depth": entry.depth,
                        "findings": entry.findings,
                        "score": entry.score,
                    }
                    for entry in entries
                ],
            },
            stream,
            indent=2,
        )
        stream.write("\n")
        return
    stream.write(
        f"{'score':>5} {'depth':>5} {'findings':>8}  "
        f"{'function':<48} reached from\n"
    )
    for entry in entries:
        stream.write(
            f"{entry.score:>5} {entry.depth:>5} {entry.findings:>8}  "
            f"{entry.module + '.' + entry.qualname:<48} {entry.root}\n"
        )
    stream.write(f"{len(entries)} hot function(s)\n")


def _emit_dataflow_report(
    contexts: List[FileContext], fmt: str, stream: TextIO
) -> None:
    """Render the dataflow evidence tables as text or JSON."""
    from repro.analysis.dataflow import dataflow_report

    report = dataflow_report(contexts)
    if fmt == "json":
        json.dump({"version": 2, **report}, stream, indent=2)
        stream.write("\n")
        return
    caches = report["caches"]
    streams = report["streams"]
    assert isinstance(caches, list)
    assert isinstance(streams, list)
    stream.write(f"caches ({len(caches)}):\n")
    for row in caches:
        status = (
            f"MISSING {', '.join(row['missing'])}"
            if row["missing"]
            else "ok"
        )
        stream.write(
            f"  {row['path']}:{row['line']}  {row['function']}  "
            f"[{row['kind']}] {row['container']}\n"
            f"      key:   {', '.join(row['key']) or '-'}"
            f"{'  (digest-keyed)' if row['digest_keyed'] else ''}\n"
            f"      reads: {', '.join(row['reads']) or '-'}   {status}\n"
        )
    stream.write(f"streams ({len(streams)}):\n")
    for row in streams:
        stream.write(
            f"  {row['path']}:{row['line']}  {row['function']}  "
            f"{row['name']}  "
            f"{'keyed' if row['keyed'] else 'unkeyed'}"
            f"{'  -> return' if row['returned'] else ''}\n"
            f"      seed:  {', '.join(row['seed']) or '-'}\n"
            f"      sinks: {', '.join(row['sinks']) or '-'}\n"
        )


def _changed_paths(root: Path) -> Optional[Set[str]]:
    """POSIX-relative paths changed vs HEAD, plus untracked files.

    Returns None (caller lints everything) when git is unavailable or
    the root is not a work tree — ``--changed-only`` degrades to a full
    scan rather than silently linting nothing.
    """
    changed: Set[str] = set()
    for command in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            result = subprocess.run(
                command,
                cwd=root,
                capture_output=True,
                text=True,
                check=True,
                timeout=30,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        for line in result.stdout.splitlines():
            line = line.strip()
            if line:
                changed.add(line.replace("\\", "/"))
    return changed


def _membership_filter(changed: Set[str]) -> Callable[[FileContext], bool]:
    def accept(context: FileContext) -> bool:
        return context.display_path in changed

    return accept


def run_lint(
    args: argparse.Namespace, stream: Optional[TextIO] = None
) -> int:
    out = stream if stream is not None else sys.stdout
    if args.rules:
        _emit_rules(out)
        return 0
    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"repro lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    root = Path(args.root) if args.root else Path.cwd()
    if args.hot_report or args.dataflow_report:
        contexts, errors = load_contexts(paths, root=root)
        if errors:
            for finding in errors:
                print(finding.render(), file=sys.stderr)
            return 2
        if args.hot_report:
            from repro.analysis.hotpath import hot_report

            _emit_hot_report(hot_report(contexts), args.format, out)
        if args.dataflow_report:
            _emit_dataflow_report(contexts, args.format, out)
        return 0
    file_filter: Optional[Callable[[FileContext], bool]] = None
    if args.changed_only:
        changed = _changed_paths(root)
        if changed is None:
            print(
                "repro lint: --changed-only: git unavailable, "
                "scanning everything",
                file=sys.stderr,
            )
        else:
            file_filter = _membership_filter(changed)
    suppressed: Dict[str, int] = {}
    findings = scan_paths(
        paths,
        analysis.ALL_RULES,
        root=root,
        file_filter=file_filter,
        suppressed=suppressed,
    )

    baseline_path = Path(args.baseline)
    if args.update_baseline:
        write_baseline(findings, baseline_path)
        print(
            f"wrote {len(findings)} finding(s) to {baseline_path}", file=out
        )
        return 0

    new: List[Finding]
    known: List[Finding]
    stale: List[str]
    if args.no_baseline:
        new, known, stale = findings, [], []
    else:
        try:
            diff = diff_against_baseline(findings, baseline_path)
        except ValueError as error:
            print(f"repro lint: {error}", file=sys.stderr)
            return 2
        new, known, stale = diff.new, diff.known, diff.stale

    if args.format == "json":
        _emit_json(new, out, suppressed)
    elif args.format == "github":
        _emit_github(new, out)
        print(
            f"{len(new)} new finding(s), {len(known)} baselined, "
            f"{len(stale)} stale baseline entrie(s)",
            file=out,
        )
    else:
        for finding in new:
            print(finding.render(), file=out)
            if finding.snippet:
                print(f"    {finding.snippet}", file=out)
        summary = (
            f"{len(new)} new finding(s), {len(known)} baselined, "
            f"{len(stale)} stale baseline entrie(s), "
            f"{sum(suppressed.values())} pragma-suppressed"
        )
        print(summary, file=out)
        if stale:
            print(
                "stale entries record already-fixed debt; run "
                "'repro lint --update-baseline' to retire them",
                file=out,
            )

    if new:
        return 1
    if stale and args.strict_stale:
        return 1
    return 0
