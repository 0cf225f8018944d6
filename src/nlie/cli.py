"""Command-line front end: JSON in, deterministic reports out.

Exit codes form the CI contract: 0 when the checked property holds (or a
computation succeeded), 1 when a mathematical property fails (the report
carries a witness), 2 on input errors (malformed JSON, missing fields,
dimension mismatches, violated preconditions, numbers past the
interpreter's digit limit for int/str conversion, in or out).

Stdout is byte-stable for a fixed input and tool version; wall-clock
timing goes to stderr.  Checker verbs print a small text report (or a
JSON envelope under ``--format json``).  Producer verbs (``deform
extend``, ``obstruction``, ``nijenhuis --generate-path``, ``algebroid
example-*``) print the produced document itself as JSON so it can be
piped straight into the next command.

``--threads`` is accepted for interface compatibility; all computations
run single-threaded, which is what keeps the outputs byte-stable.
``algebroid check --sections-degree`` and ``--max-degree`` are accepted
for compatibility too: the check decides the axioms on all sections
(``check_algebroid_axioms``), and the Leibniz rule holds by construction
of the bracket on sections.
``--trace`` writes spans and work counters to stderr as JSON lines
(``nlie.trace``); stdout and the exit code stay the same.

Each verb is declared once, in ``VERBS``.  A well-formed argv is parsed
straight from that table and builds no parser; argparse serves only help
and errors, with a fresh parser that lists every verb.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import time
from typing import Any, Callable, Optional

from . import __version__, trace
from .algebra import CheckResult, check_fundamental_identity
from .algebroid import (check_algebroid_axioms, example_tangent_fc,
                        example_tangent_topform)
from .chevalley import (CECochain, ce_differential, ce_differential_matrix,
                        ce_eval)
from .cochains import basis_cochains, eval_keys_z, from_bracket, gla_bracket
from .cohomology import DEFAULT_DEGREE_CAP, Complex, cohomology
from .deformations import (check_deformation, check_equivalence,
                           check_nijenhuis, extend, nijenhuis_path,
                           obstruction, rigidity_probe)
from .errors import DimensionMismatch, InvalidStructure, OutputTooLarge
from .io import (InputFormatError, algebra_from_json, algebroid_from_json,
                 algebroid_to_json, cochain_to_json,
                 cohomology_report_to_json, emap_from_json, matrix_from_json,
                 path_from_json, path_to_json, read_document, report_value)
from .linalg import Refusal
from .poly import poly_const, poly_var


class Report:
    """Collects the verdict of one run and renders it in either format."""

    def __init__(self, command: str):
        self.command = command
        self.inputs: list[dict[str, str]] = []
        self.fields: dict[str, Any] = {}
        self.lines: list[str] = []
        self.artifact: Optional[dict] = None
        self.exit_code = 0

    def add_input(self, path: str, data: bytes) -> None:
        self.inputs.append({"path": path,
                            "sha256": hashlib.sha256(data).hexdigest()})

    def set(self, key: str, value: Any, line: Optional[str] = None) -> None:
        self.fields[key] = value
        if line is not None:
            self.lines.append(line)

    @trace.traced("cli.render",
                  lambda args, text: {"bytes": len(text.encode())})
    def render(self, fmt: str) -> str:
        if self.artifact is not None:
            return json.dumps(self.artifact, indent=2) + "\n"
        if fmt == "json":
            doc = {"tool": "nlie", "version": __version__,
                   "command": self.command, "inputs": self.inputs}
            doc.update(self.fields)
            return json.dumps(doc, indent=2) + "\n"
        head = [f"nlie {__version__}"]
        head += [f"input: {i['path']} sha256:{i['sha256']}"
                 for i in self.inputs]
        return "\n".join(head + self.lines) + "\n"


def _load(report: Report, path: str, parse: Callable) -> Any:
    """Record ``path`` as an input of the run and parse its document; the
    file is read once, for both its digest and its document."""
    data, doc = read_document(path)
    report.add_input(path, data)
    return parse(doc, where=path)


def _verdict(report: Report, label: str, holds: bool,
             witness: Any = None) -> bool:
    """Report ``label: holds`` or ``label: fails``; a failure exits 1 and
    carries its witness, if it has one."""
    status = "holds" if holds else "fails"
    report.set("status", status, f"{label}: {status}")
    if not holds:
        report.exit_code = 1
        if witness is not None:
            encoded = report_value(witness)
            report.set("witness", encoded,
                       "witness: " + json.dumps(encoded, sort_keys=True))
    return holds


# ------------------------------------------------------------------ verbs

def run_check(args, report: Report) -> None:
    alg = _load(report, args.algebra, algebra_from_json)
    res = check_fundamental_identity(alg)
    _verdict(report, "fundamental identity", res.holds, res.witness)


def run_cohomology(args, report: Report) -> None:
    alg = _load(report, args.algebra, algebra_from_json)
    rep = cohomology(alg, args.degree, max_degree_cap=args.max_degree_cap)
    report.fields.update(status="ok", **cohomology_report_to_json(rep))
    report.lines += [
        f"degree: {rep.degree}",
        f"dim cochains: {rep.dim_cochains}",
        f"rank d_out: {rep.rank_d_out}",
        f"rank d_in: {rep.rank_d_in}",
        f"betti: {rep.betti}",
        f"representatives: {rep.betti}",
    ]


def run_nijenhuis(args, report: Report) -> None:
    alg = _load(report, args.algebra, algebra_from_json)
    nmat = _load(report, args.operator, matrix_from_json)
    # the path is read off the tower the check builds
    res, path = (nijenhuis_path(alg, nmat) if args.generate_path
                 else (check_nijenhuis(alg, nmat), None))
    if _verdict(report, "nijenhuis condition", res.holds, res.witness) \
            and args.generate_path:
        report.artifact = path_to_json(path)


def _power_verdict(report: Report, label: str, res: CheckResult) -> None:
    """``_verdict`` for a power-by-power check: a failure reports the
    first failing power of its witness."""
    if not _verdict(report, label, res.holds):
        power = res.witness["first_failing_power"]
        report.set("first_failing_power", power,
                   f"first failing power: {power}")


def run_deform_check(args, report: Report) -> None:
    path = _load(report, args.path, path_from_json)
    res = check_deformation(path, mode=args.mode)
    report.set("mode", args.mode)
    _power_verdict(report, f"deformation equations ({args.mode})", res)


_OBSTRUCTED = "obstruction class is nonzero: Theta is not a coboundary"


def run_deform_extend(args, report: Report) -> None:
    path = _load(report, args.path, path_from_json)
    term = extend(path)
    if isinstance(term, Refusal):
        report.set("status", "fails", "extension: obstructed")
        report.set("certificate", _OBSTRUCTED, f"certificate: {_OBSTRUCTED}")
        report.exit_code = 1
    else:
        report.artifact = cochain_to_json(term)


def run_deform_equiv(args, report: Report) -> None:
    path1 = _load(report, args.path1, path_from_json)
    path2 = _load(report, args.path2, path_from_json)
    emap = _load(report, args.map, emap_from_json)
    _power_verdict(report, "equivalence",
                   check_equivalence(path1, path2, emap))


def run_deform_rigidity(args, report: Report) -> None:
    alg = _load(report, args.algebra, algebra_from_json)
    rep = rigidity_probe(alg, args.max_order, args.trials, seed=args.seed)
    status = "holds" if rep.all_trivialized else "fails"
    report.set("note", rep.note, f"note: {rep.note}")
    report.set("betti_h2", rep.betti_h2, f"betti h2: {rep.betti_h2}")
    report.set("max_order", rep.max_order)
    trials = [{"kind": t.kind, "trivialized": t.trivialized,
               "stuck_order": t.stuck_order} for t in rep.trials]
    report.fields["trials"] = trials
    for i, t in enumerate(rep.trials):
        verdict = "trivialized" if t.trivialized else \
            f"stuck at order {t.stuck_order}"
        report.lines.append(f"trial {i} ({t.kind}): {verdict}")
    word = "yes" if rep.all_trivialized else "no"
    report.set("status", status, f"all trivialized: {word}")
    report.exit_code = 0 if rep.all_trivialized else 1


def run_obstruction(args, report: Report) -> None:
    path = _load(report, args.path, path_from_json)
    report.artifact = cochain_to_json(obstruction(path))


def run_algebroid_check(args, report: Report) -> None:
    abd = _load(report, args.algebroid, algebroid_from_json)
    res = check_algebroid_axioms(abd)
    _verdict(report, "algebroid axioms", res.holds, res.witness)


_FC_POLYS = {
    "one": lambda m: poly_const(m, 1),
    "x1": lambda m: poly_var(m, 0),
    "x1sq": lambda m: poly_var(m, 0) * poly_var(m, 0),
}


def run_algebroid_fc(args, report: Report) -> None:
    alg = _load(report, args.algebra, algebra_from_json)
    f = _FC_POLYS[args.f](alg.dim)
    report.artifact = algebroid_to_json(example_tangent_fc(alg, f))


def run_algebroid_topform(args, report: Report) -> None:
    abd = example_tangent_topform(args.base_dim, args.wedge_degree)
    report.artifact = algebroid_to_json(abd)


def run_reduce_lie(args, report: Report) -> None:
    alg = _load(report, args.algebra, algebra_from_json)
    if alg.arity != 2:
        raise InputFormatError("reduce-lie needs a binary bracket "
                               f"(arity {alg.arity} given)", args.algebra)
    cx = Complex(alg)
    agreement = {str(k): cx.matrix(k) == ce_differential_matrix(alg, k)
                 for k in (0, 1)}
    agreement["2"] = _ce_agrees_by_evaluation(alg)
    for k, same in agreement.items():
        word = "agree" if same else "disagree"
        method = "evaluation" if k == "2" else "matrix"
        report.lines.append(f"degree {k}: {word} ({method} identity)")
    all_agree = all(agreement.values())
    report.fields["agreement"] = agreement
    report.set("status", "holds" if all_agree else "fails",
               f"reduction: {'agree' if all_agree else 'disagree'}")
    report.exit_code = 0 if all_agree else 1


def _ce_agrees_by_evaluation(alg) -> bool:
    phi = from_bracket(alg)
    m = alg.dim
    for psi in basis_cochains(m, 2, 1):
        generic = gla_bracket(phi, psi)
        ce = ce_differential(
            alg, CECochain(m, 2, {key: val for (_, key), val
                                  in psi.entries.items()}))
        if any(eval_keys_z(generic, ((i,), (j,)), k) != ce_eval(ce, (i, j, k))
               for i in range(m)
               for j, k in itertools.combinations(range(m), 2)):
            return False
    return True


# ------------------------------------------------------------- arg parsing

def _arg(*names: str, **options) -> tuple:
    return names, options


# the flags of the top parser and of every leaf verb: the top parser sets
# their defaults, and a leaf's SUPPRESS keeps a flag given before the verb
_SHARED_FLAGS = (
    _arg("--format", choices=("text", "json"), default=argparse.SUPPRESS,
         help="report format (default: text)"),
    _arg("--seed", type=int, default=argparse.SUPPRESS,
         help="seed for randomized sampling verbs"),
    _arg("--threads", type=int, default=argparse.SUPPRESS,
         help="accepted for compatibility; runs are single-threaded"),
)
_TOP_DEFAULTS = {"format": "text", "seed": 0, "threads": 1}
# before the verb only, as the README documents
_TRACE = _arg("--trace", action="store_true",
              help="write spans and work counters to stderr as JSON lines")


# name: (summary, runner, *arguments) for a leaf verb, (summary, verbs) for
# a group of subverbs; each name is listed in declaration order
VERBS = {
    "check": ("fundamental identity of an algebra", run_check,
              _arg("algebra")),
    "cohomology": ("betti numbers of the deformation complex",
                   run_cohomology, _arg("algebra"),
                   _arg("--degree", type=int, required=True),
                   _arg("--max-degree-cap", type=int,
                        default=DEFAULT_DEGREE_CAP)),
    "nijenhuis": ("check an operator and optionally emit its path",
                  run_nijenhuis, _arg("algebra"),
                  _arg("operator", help="square matrix JSON"),
                  _arg("--generate-path", action="store_true")),
    "deform": ("deformation path calculus", {
        "check": ("power-by-power deformation equations", run_deform_check,
                  _arg("path"), _arg("--mode", choices=("truncated", "full"),
                                     default="truncated")),
        "extend": ("solve for the next term or certify the obstruction",
                   run_deform_extend, _arg("path")),
        "equiv": ("conjugate path1 and compare with path2", run_deform_equiv,
                  _arg("path1"), _arg("path2"),
                  _arg("map", help="equivalence map JSON")),
        "rigidity": ("sampling probe for rigidity", run_deform_rigidity,
                     _arg("algebra"), _arg("--max-order", type=int, default=2),
                     _arg("--trials", type=int, default=6)),
    }),
    "obstruction": ("emit the obstruction cochain of a path", run_obstruction,
                    _arg("path")),
    "algebroid": ("polynomial algebroid models", {
        "check": ("algebroid axioms", run_algebroid_check, _arg("algebroid"),
                  _arg("--max-degree", type=int, default=argparse.SUPPRESS,
                       help="accepted for compatibility; the Leibniz rule "
                            "holds by construction"),
                  _arg("--sections-degree", type=int,
                       default=argparse.SUPPRESS,
                       help="accepted for compatibility; the axioms are "
                            "decided on all sections")),
        "example-fc": ("scaled tangent-model algebroid over an algebra",
                       run_algebroid_fc, _arg("algebra"),
                       _arg("--f", choices=sorted(_FC_POLYS), default="x1",
                            help="scaling polynomial")),
        "example-topform": ("top-form tangent algebroid",
                            run_algebroid_topform,
                            _arg("base_dim", type=int),
                            _arg("wedge_degree", type=int)),
    }),
    "reduce-lie": ("compare the generic differential with the "
                   "Chevalley-Eilenberg one", run_reduce_lie,
                   _arg("algebra")),
}


def _add_arguments(parser: argparse.ArgumentParser, specs) -> None:
    for names, options in specs:
        parser.add_argument(*names, **options)


def _add_verbs(parser: argparse.ArgumentParser, verbs: dict,
               dest: str) -> None:
    """Make ``verbs`` the choices of ``parser``'s positional ``dest`` and
    build each verb's parser: a group's subverbs, or a leaf's shared
    flags, runner and arguments."""
    choices = parser.add_subparsers(dest=dest, required=True)
    for name, (summary, *spec) in verbs.items():
        verb = choices.add_parser(name, help=summary)
        if isinstance(spec[0], dict):
            _add_verbs(verb, spec[0], "subverb")
        else:
            _add_arguments(verb, _SHARED_FLAGS)
            verb.set_defaults(run=spec[0])
            _add_arguments(verb, spec[1:])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlie",
        description="exact checkers for skew n-ary brackets, their "
                    "deformation cohomology, and polynomial algebroid "
                    "models")
    _add_arguments(parser, _SHARED_FLAGS)
    parser.set_defaults(**_TOP_DEFAULTS)
    _add_arguments(parser, (_TRACE,))
    _add_verbs(parser, VERBS, "verb")
    return parser


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _quick_parse(argv: list[str]) -> Optional[argparse.Namespace]:
    """The namespace ``build_parser().parse_args(argv)`` returns, read
    straight from ``VERBS``, for a well-formed argv: verb names,
    positionals and exact flag names each followed by its value, with
    ``--trace`` before the verb only.  None for anything else (help,
    abbreviations, ``=`` forms, a token that starts with ``-``, a bad
    value, a missing or extra argument), which argparse then parses."""
    found: dict[str, Any] = dict(_TOP_DEFAULTS, trace=False)
    flags = {names[0]: options for names, options in (*_SHARED_FLAGS,
                                                       _TRACE)}
    table: Optional[dict] = VERBS
    dest, positionals, required = "verb", [], set()
    tokens = iter(argv)
    for token in tokens:
        options = flags.get(token)
        if options is not None:
            name = token
            if options.get("action") == "store_true":
                found[_dest(name)] = True
                continue
            required.discard(name)
            # a missing value reads as "-", which is declined below
            token = next(tokens, "-")
        elif token.startswith("-"):
            return None
        elif table is not None:
            if token not in table:
                return None
            found[dest] = token
            spec = table[token][1:]
            if isinstance(spec[0], dict):
                # no flag between a group and its subverb
                table, dest, flags = spec[0], "subverb", {}
                continue
            table, found["run"] = None, spec[0]
            flags = {names[0]: options for names, options
                     in (*_SHARED_FLAGS, *spec[1:])
                     if names[0].startswith("-")}
            positionals = [(names[0], options) for names, options
                           in spec[1:] if not names[0].startswith("-")]
            required = {name for name, options in flags.items()
                        if options.get("required")}
            for name, options in flags.items():
                default = options.get("default",
                                      False if "action" in options else None)
                if default is not argparse.SUPPRESS:
                    found[_dest(name)] = default
            continue
        elif positionals:
            name, options = positionals.pop(0)
        else:
            return None
        if token.startswith("-"):
            return None
        try:
            value = options.get("type", str)(token)
        except (TypeError, ValueError):
            return None
        choices = options.get("choices")
        if choices is not None and value not in choices:
            return None
        found[_dest(name)] = value
    if table is not None or positionals or required:
        return None
    return argparse.Namespace(**found)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _quick_parse(argv) or build_parser().parse_args(argv)
    command = args.verb + (f" {args.subverb}"
                           if getattr(args, "subverb", None) else "")
    report = Report(command)
    started = time.perf_counter()
    if args.trace:
        trace.enable(sys.stderr)
    try:
        with trace.span("cli.main"):
            args.run(args, report)
            # render before writing, so a failed render prints nothing
            text = report.render(args.format)
    except (InputFormatError, OutputTooLarge, DimensionMismatch,
            InvalidStructure) as exc:
        print(f"error: {exc}{_witness_detail(exc)}", file=sys.stderr)
        return 2
    finally:
        if args.trace:
            trace.finish()
        print(f"elapsed: {time.perf_counter() - started:.3f}s",
              file=sys.stderr)
    sys.stdout.write(text)
    return report.exit_code


def _witness_detail(exc: Exception) -> str:
    witness = getattr(exc, "witness", None)
    if witness is None:
        return ""
    try:
        return " witness: " + json.dumps(report_value(witness),
                                         sort_keys=True)
    except OutputTooLarge as big:
        return f" (witness not shown: {big})"


if __name__ == "__main__":
    sys.exit(main())
