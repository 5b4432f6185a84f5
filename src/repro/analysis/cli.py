"""The ``python -m repro analyze`` and ``python -m repro certify`` commands.

``analyze`` has three modes, all CI gates:

* ``analyze guest [--workload NAME]`` -- run the static leakage checker
  (and, unless ``--static-only``, the dynamic cross-check) over bundled
  guest workloads.  Exit 0 iff every workload matches its expectation:
  leaky workloads are flagged *and* trace-confirmed, clean ones report
  nothing and show no secret-correlated pages.
* ``analyze lint [PATH...]`` -- run the invariant linter (default:
  ``src/repro``).  Exit 0 iff no findings.
* ``analyze all`` -- both.

Failures use distinct exit codes (documented in ``docs/analysis.md``) so
CI can tell a broken leakage contract from a broken invariant without
parsing output: 2 = contract violation, 3 = lint findings, 4 = both.
``--json`` emits a schema-stamped payload shaped like the certify CLI's
(top-level ``schema``/``ok``/``exit_code``) so verdicts diff structurally.

``certify`` runs the static hierarchy security certifier
(:mod:`repro.analysis.certify`): certificates for named sweep designs or
JSON ``HierarchySpec`` files, and ``--gate`` replays every certificate
against the dynamic oracles, exiting nonzero on any disagreement.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Tuple

ANALYZE_SCHEMA = "repro/analyze/v1"

#: Distinct failure exit codes (0 = clean).  1 is left to unexpected
#: errors and 2..4 chosen so CI can dispatch without parsing output.
EXIT_CONTRACT_VIOLATION = 2
EXIT_LINT_FINDINGS = 3
EXIT_BOTH = 4


def _check_guest(
    names: List[str], static_only: bool, design: str
) -> Tuple[List[str], List[dict], int]:
    """Run workloads; return (text blocks, JSON payloads, failure count)."""
    from repro.analysis.dynamic import cross_check
    from repro.analysis.report import format_guest_report, guest_report_to_dict
    from repro.analysis.taint import analyze_program
    from repro.analysis.workloads import GUEST_WORKLOADS
    from repro.isa.assembler import assemble
    from repro.tlb import TLBKind

    blocks: List[str] = []
    payloads: List[dict] = []
    failures = 0
    for name in names:
        workload = GUEST_WORKLOADS[name]
        program = assemble(workload.source())
        report = analyze_program(program, name=name)
        cross = None
        if not static_only:
            cross = cross_check(workload, report, kind=TLBKind[design])
        ok = _expectation_met(workload, report, cross)
        if not ok:
            failures += 1
        verdict = "expected" if ok else "UNEXPECTED"
        blocks.append(
            format_guest_report(report, cross)
            + f"\nverdict: {verdict} ("
            + ("leak" if workload.expect_leak else "clean")
            + " expected)"
        )
        payload = guest_report_to_dict(report, cross)
        payload["expect_leak"] = workload.expect_leak
        payload["ok"] = ok
        payloads.append(payload)
    return blocks, payloads, failures


def _expectation_met(workload, report, cross) -> bool:
    if workload.expect_leak:
        if report.clean:
            return False
        if cross is not None and not cross.leaks_dynamically:
            return False
        if cross is not None and cross.confirmed_count == 0:
            return False
        return True
    if not report.clean:
        return False
    if cross is not None and cross.leaks_dynamically:
        return False
    return True


def _emit_analyze_json(mode: str, exit_code: int, **payload) -> None:
    envelope = {
        "schema": ANALYZE_SCHEMA,
        "mode": mode,
        "ok": exit_code == 0,
        "exit_code": exit_code,
    }
    envelope.update(payload)
    print(json.dumps(envelope, indent=2))


def _cmd_guest(args: argparse.Namespace) -> int:
    from repro.analysis.workloads import GUEST_WORKLOADS

    names = [args.workload] if args.workload else sorted(GUEST_WORKLOADS)
    blocks, payloads, failures = _check_guest(
        names, static_only=args.static_only, design=args.design
    )
    code = EXIT_CONTRACT_VIOLATION if failures else 0
    if args.json:
        _emit_analyze_json("guest", code, guest=payloads)
    else:
        print("\n\n".join(blocks))
    return code


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import LINT_RULES, iter_python_files, run_lint
    from repro.analysis.report import (
        format_lint_findings,
        lint_findings_to_dict,
    )

    if args.rules:
        for rule in LINT_RULES:
            print(f"{rule.name}: {rule.description}")
        return 0
    paths = args.paths or ["src/repro"]
    findings = run_lint(paths)
    checked = sum(1 for _path in iter_python_files(paths))
    code = EXIT_LINT_FINDINGS if findings else 0
    if args.json:
        payload = lint_findings_to_dict(findings)
        payload["checked_files"] = checked
        _emit_analyze_json("lint", code, lint=payload)
    else:
        print(format_lint_findings(findings, checked_files=checked))
    return code


def _cmd_all(args: argparse.Namespace) -> int:
    from repro.analysis.lint import iter_python_files, run_lint
    from repro.analysis.report import (
        format_lint_findings,
        lint_findings_to_dict,
    )
    from repro.analysis.workloads import GUEST_WORKLOADS

    paths = args.paths or ["src/repro"]
    findings = run_lint(paths)
    checked = sum(1 for _path in iter_python_files(paths))
    names = sorted(GUEST_WORKLOADS)
    blocks, payloads, guest_failures = _check_guest(
        names, static_only=args.static_only, design=args.design
    )
    if findings and guest_failures:
        code = EXIT_BOTH
    elif findings:
        code = EXIT_LINT_FINDINGS
    elif guest_failures:
        code = EXIT_CONTRACT_VIOLATION
    else:
        code = 0
    if args.json:
        lint_payload = lint_findings_to_dict(findings)
        lint_payload["checked_files"] = checked
        _emit_analyze_json("all", code, lint=lint_payload, guest=payloads)
    else:
        print(format_lint_findings(findings, checked_files=checked))
        print()
        print("\n\n".join(blocks))
        print()
        summary = "OK" if code == 0 else "FAILED"
        print(
            f"analyze: {summary} ({len(findings)} lint findings,"
            f" {guest_failures} workload expectation failures,"
            f" exit {code})"
        )
    return code


def add_analyze_parser(subparsers) -> None:
    """Wire ``analyze`` into the top-level repro CLI."""
    analyze = subparsers.add_parser(
        "analyze",
        help="static leakage checker + simulator invariant linter",
        description=(
            "Layer 1 statically checks guest programs for secret-dependent"
            " address flow and cross-validates findings against event-bus"
            " traces; layer 2 lints the simulator sources for architectural"
            " invariants.  Exit codes: 0 clean, 2 contract violation,"
            " 3 lint findings, 4 both (see docs/analysis.md)."
        ),
    )
    modes = analyze.add_subparsers(dest="mode", required=True)

    guest = modes.add_parser(
        "guest", help="leakage-contract check of guest programs"
    )
    from repro.analysis.workloads import GUEST_WORKLOADS

    guest.add_argument(
        "--workload",
        choices=sorted(GUEST_WORKLOADS),
        default=None,
        help="bundled workload to check (default: all)",
    )
    guest.add_argument(
        "--static-only",
        action="store_true",
        help="skip the dynamic event-bus cross-check",
    )
    guest.add_argument(
        "--design",
        choices=["SA", "SP", "RF"],
        default="SA",
        help="TLB design for the dynamic cross-check (default: SA)",
    )
    guest.add_argument("--json", action="store_true")
    guest.set_defaults(func=_cmd_guest)

    lint = modes.add_parser(
        "lint", help="invariant lint of the simulator sources"
    )
    lint.add_argument(
        "paths", nargs="*", help="files/directories (default: src/repro)"
    )
    lint.add_argument(
        "--rules", action="store_true", help="list the rule catalog and exit"
    )
    lint.add_argument("--json", action="store_true")
    lint.set_defaults(func=_cmd_lint)

    both = modes.add_parser("all", help="lint + every bundled workload")
    both.add_argument(
        "paths", nargs="*", help="lint files/directories (default: src/repro)"
    )
    both.add_argument("--static-only", action="store_true")
    both.add_argument(
        "--design", choices=["SA", "SP", "RF"], default="SA"
    )
    both.add_argument("--json", action="store_true")
    both.set_defaults(func=_cmd_all)


# --------------------------------------------------------------------------
# certify
# --------------------------------------------------------------------------


def _load_spec(target: str):
    """Resolve a certify target: sweep design label, JSON file, or '-'."""
    from repro.tlb.spec import coerce_spec

    if target == "-" or target.endswith(".json"):
        try:
            if target == "-":
                return coerce_spec(json.load(sys.stdin))
            with open(target) as handle:
                return coerce_spec(json.load(handle))
        except (OSError, ValueError) as error:
            raise SystemExit(
                f"certify: invalid spec {target!r}: {error}"
            ) from None
    from repro.ablations.hierarchy import sweep_specs

    for spec in sweep_specs():
        if spec.label() == target:
            return spec
    labels = ", ".join(spec.label() for spec in sweep_specs())
    raise SystemExit(
        f"certify: unknown design {target!r} (not a sweep label and not a"
        f" .json spec file); known labels: {labels}"
    )


def _cmd_certify(args: argparse.Namespace) -> int:
    from repro.analysis.certify import certify_all, format_certificate
    from repro.analysis.certify_gate import format_report, run_gate

    if args.gate:
        report = run_gate(legs=args.legs)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(format_report(report))
        return 0 if report.passed else 1

    if args.all:
        from repro.ablations.hierarchy import sweep_specs

        targets = sweep_specs()
    elif args.targets:
        targets = [_load_spec(target) for target in args.targets]
    else:
        raise SystemExit(
            "certify: name at least one design/spec, or use --all / --gate"
        )

    certificates = certify_all(targets)
    if args.json:
        payload = [certificate.to_dict() for certificate in certificates]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=2))
    else:
        print("\n\n".join(
            format_certificate(certificate) for certificate in certificates
        ))
    return 0


def add_certify_parser(subparsers) -> None:
    """Wire ``certify`` into the top-level repro CLI."""
    certify_parser = subparsers.add_parser(
        "certify",
        help="static hierarchy security certifier (three-step model, lifted)",
        description=(
            "Symbolically executes the three-step benchmark expansion over"
            " an N-level abstract machine and emits a per-design"
            " certificate covering all 24 Table 2 rows plus refill-channel"
            " variants -- no simulation.  --gate replays certificates"
            " against the dynamic oracles (hierarchy sweep rows, flat"
            " Table 4 capacities, TaintObserver refill cross-check) and"
            " exits 1 on any static/dynamic disagreement."
        ),
    )
    certify_parser.add_argument(
        "targets",
        nargs="*",
        metavar="DESIGN|SPEC.json|-",
        help=(
            "sweep design label (e.g. RF+SA, SA+SP+pwc, RF), a JSON"
            " HierarchySpec file, or '-' for a spec on stdin"
        ),
    )
    certify_parser.add_argument(
        "--all", action="store_true",
        help="certify every design of the 24-design sweep grid",
    )
    certify_parser.add_argument(
        "--gate", action="store_true",
        help="run the static/dynamic differential gate instead",
    )
    certify_parser.add_argument(
        "--legs", nargs="+", choices=["sweep", "flat", "refill"],
        default=None, help="gate legs to run (default: all three)",
    )
    certify_parser.add_argument("--json", action="store_true")
    certify_parser.set_defaults(func=_cmd_certify)
