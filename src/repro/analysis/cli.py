"""The ``repro lint`` subcommand.

Runs every registered rule over the given paths (default: ``src``) and
reports in human-readable text, machine-readable JSON or GitHub
Actions annotations.

Exit codes: ``0`` — no unsuppressed findings; ``1`` — at least one
finding (a ``# lint: allow(rule)`` pragma is the only way to accept
one); ``2`` — usage errors (missing paths, files that do not parse
for the reports).

``repro.cli`` builds every subcommand's parser, lint's included, so
this module imports the rule registry and the dataflow and hot-path
modules only when lint runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, TextIO

from repro import analysis
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
        "--root",
        default=None,
        help="anchor for repo-relative paths in reports "
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
    """Machine-readable findings; schema in DESIGN §9, "Lint output
    formats".

    Version 2 added the per-finding ``scope`` (where the rule can fire)
    and the top-level per-rule ``suppressed`` pragma counts; version 3
    drops the per-finding ``fingerprint``, which only a findings
    baseline read.
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
        }
        for finding in findings
    ]
    payload = {
        "version": 3,
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
    suppressed: Dict[str, int] = {}
    findings = scan_paths(
        paths, analysis.ALL_RULES, root=root, suppressed=suppressed
    )
    if args.format == "json":
        _emit_json(findings, out, suppressed)
    elif args.format == "github":
        _emit_github(findings, out)
        print(f"{len(findings)} finding(s)", file=out)
    else:
        for finding in findings:
            print(finding.render(), file=out)
            if finding.snippet:
                print(f"    {finding.snippet}", file=out)
        print(
            f"{len(findings)} finding(s), "
            f"{sum(suppressed.values())} pragma-suppressed",
            file=out,
        )
    return 1 if findings else 0
