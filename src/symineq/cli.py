"""Command-line harness: corpus generation, single checks, suites, re-rendering.

Exit codes: 0 all checks passed, 1 at least one inequality failed, 2 input
error.  The default output directory comes from ``SYMINEQ_OUT`` (falling back
to the working directory); flags override config-file values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .corpus import CorpusSpec, generate_corpus
from .gradient import GRADIENT_MODES
from .inequalities import ARITY, CHECKERS, CONSTANT_MODES, checker_kwargs
from .isoperimetry import ProfileHandle, phi_from_profile, validate_profile
from .measure import GridFunction, write_document
from .suite import SuiteConfig, emit_report, load_report, run_suite, suite_exit_code

__all__ = ["main"]


def _print(text: str) -> None:
    """Print a command's result; a reader that closed stdout early (``| head``) is no error."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the command still returns its own code; the flush at exit goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _out_dir(value) -> Path:
    path = Path(value or os.environ.get("SYMINEQ_OUT") or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


class _InputError(Exception):
    """An input a command cannot load; ``main`` prints it and exits 2."""


def _loaded(what: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; an OSError or ValueError it raises becomes "cannot load <what>: ..."."""
    try:
        return fn(*args, **kwargs)
    except (OSError, ValueError) as exc:
        raise _InputError(f"cannot load {what}: {exc}") from exc


def _cmd_corpus(args) -> int:
    spec = _loaded("spec", CorpusSpec.from_json, args.spec) if args.spec else CorpusSpec()
    # a family value that does not fit the grid is only found while building
    corpus = _loaded("spec", generate_corpus, spec)
    out = _out_dir(args.out)
    manifest = []
    for function_id, gf in corpus:
        name = f"{function_id}.json"
        gf.to_json(out / name)
        manifest.append({"id": function_id, "file": name})
    spec.to_json(out / "corpus_spec.json")
    write_document(manifest, out / "manifest.json", indent=1)
    _print(f"wrote {len(corpus)} functions to {out}")
    return 0


def _admissible_phi(path, t_max: float) -> ProfileHandle:
    """The φ at ``path``, if its profile I = t/φ (the map is its own inverse) is admissible on (0, t_max]."""
    phi = ProfileHandle.from_json(path)
    violations = validate_profile(phi_from_profile(phi), t_max=t_max)
    if violations:
        lines = "".join(f"\n  {v}" for v in violations)
        raise ValueError(f"not admissible; its profile t/phi has:{lines}")
    return phi


def _cmd_check(args) -> int:
    flags = {"p": args.p, "gradient_mode": args.mode, "tolerance": args.tol}
    entry = {key: value for key, value in flags.items() if value is not None}
    f = _loaded(f"function {args.fn}", GridFunction.from_json, args.fn)
    if args.phi:
        entry["phi"] = _loaded(f"phi {args.phi}", _admissible_phi, args.phi, f.domain_measure)
    # a flag the checker does not declare is an error
    kwargs = _loaded(f"check {args.ineq}", checker_kwargs, args.ineq, entry, {}, 1)
    report = _loaded(f"check {args.ineq}", CHECKERS[args.ineq], f, **kwargs)
    _print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    return 0 if report.passed else 1


def _cmd_suite(args) -> int:
    config = _loaded("config", SuiteConfig.from_json, args.config) if args.config else SuiteConfig()
    flags = {
        "gradient_mode": args.gradient_mode,
        "tolerance": args.tol,
        "constant_mode": args.constant_mode,
        "detail": args.detail or None,
    }
    overrides = {key: value for key, value in flags.items() if value is not None}
    # the config checks the flags' values too; they leave the corpus as it is
    config = _loaded("options", replace, config, **overrides)
    corpus = _loaded("config", generate_corpus, config.corpus)
    out = _out_dir(args.out)
    reports = run_suite(config, corpus)
    seed = config.corpus.seed
    emit_report(reports, "json", out / "reports.json", detail=config.detail, seed=seed)
    emit_report(reports, "csv", out / "reports.csv", detail=config.detail, seed=seed)
    code = suite_exit_code(reports)
    passed = sum(1 for r in reports if r.passed)
    flagged = sum(1 for r in reports if r.status.startswith("flagged:"))
    errors = sum(1 for r in reports if r.status != "ok") - flagged
    _print(f"{passed}/{len(reports)} checks passed; reports in {out}\n{flagged} flagged, {errors} errors")
    return code


def _cmd_report(args) -> int:
    src = Path(args.input)
    if src.is_dir():
        src = src / "reports.json"
    reports = _loaded(f"report {src}", load_report, src)
    out = _out_dir(args.out)
    target = out / f"reports_rendered.{args.format}"
    emit_report(reports, args.format, target, detail=args.detail)
    _print(f"re-rendered {len(reports)} reports to {target}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symineq",
        description="Rearrangement calculus and symmetrization-inequality checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_corpus = sub.add_parser("corpus", help="generate a deterministic corpus")
    p_corpus.add_argument("--spec", help="corpus spec JSON file")
    p_corpus.add_argument("--out", help="output directory (default: $SYMINEQ_OUT or .)")
    p_corpus.set_defaults(func=_cmd_corpus)

    p_check = sub.add_parser("check", help="run one inequality on one function")
    one_function = sorted(name for name in CHECKERS if ARITY.get(name, 1) == 1)
    p_check.add_argument("--ineq", required=True, help=f"one of {one_function}")
    p_check.add_argument("--fn", required=True, help="grid function JSON file")
    p_check.add_argument("--phi", help="profile handle JSON file")
    p_check.add_argument("--p", type=float)
    p_check.add_argument("--mode", choices=GRADIENT_MODES)
    p_check.add_argument("--tol", type=float)
    p_check.set_defaults(func=_cmd_check)

    p_suite = sub.add_parser("suite", help="run a full suite over a corpus")
    p_suite.add_argument("--config", help="suite config JSON file")
    p_suite.add_argument("--out", help="output directory (default: $SYMINEQ_OUT or .)")
    p_suite.add_argument("--gradient-mode", choices=GRADIENT_MODES)
    p_suite.add_argument("--tol", type=float)
    p_suite.add_argument("--constant-mode", choices=CONSTANT_MODES)
    p_suite.add_argument("--detail", action="store_true", help="emit per-t traces")
    p_suite.set_defaults(func=_cmd_suite)

    p_report = sub.add_parser("report", help="re-render an emitted report")
    p_report.add_argument("--in", dest="input", required=True, help="report file or directory")
    p_report.add_argument("--format", choices=("json", "csv"), default="csv")
    p_report.add_argument("--out", help="output directory (default: $SYMINEQ_OUT or .)")
    p_report.add_argument("--detail", action="store_true")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
