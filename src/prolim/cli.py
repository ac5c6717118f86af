"""Command-line surface: JSON documents in, canonical JSON reports out.

Exit codes: 0 success, 2 malformed input, 3 violated mathematical
precondition (including enumeration caps).  Reports are serialized with
sorted keys and no whitespace so golden files are byte-stable.
"""

import argparse
import functools
import json
import reprlib
import sys

import prolim
from prolim import classify as _classify
from prolim import fgab, invsys, prospace, topgrp
from prolim.errors import InputError, PreconditionError


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj):
    return _ENCODER.encode(obj) + "\n"


def load_document(path):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at byte offset {exc.pos}: {exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path}: not UTF-8 text at byte offset {exc.start}: {exc.reason}"
        ) from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path}: document must be a JSON object")
    if "system" not in doc:
        raise InputError(f"{path}: missing field 'system'")
    if "name" in doc and not isinstance(doc["name"], str):
        raise InputError(
            f"{path}: name: expected a string, got {reprlib.repr(doc['name'])}"
        )
    return doc


def parse_system(doc, key="system"):
    if key not in doc:
        raise InputError(f"missing field {key!r}")
    obj = doc[key]
    if key == "system":
        return invsys.InverseSystem.from_json(obj)
    # from_json names a fault by its path inside the system object, and
    # calls the object itself "system"
    if not isinstance(obj, dict):
        raise InputError(f"{key} must be a JSON object")
    try:
        return invsys.InverseSystem.from_json(obj)
    except InputError as exc:
        raise InputError(f"{key}.{exc}") from exc


def _report(command, doc, verdict):
    return {
        "command": command,
        "name": doc.get("name", ""),
        "verdict": verdict,
    }


def cmd_classify(args):
    doc = load_document(args.file)
    s = parse_system(doc)
    cls, cert = _classify.classify_limit(s)
    verdict = {"class": cls.to_json(), "certificate": cert.to_json()}
    if not args.trace:
        verdict["certificate"].pop("trace")
    return _report("classify", doc, verdict)


def cmd_kk_classify(args):
    doc = load_document(args.file)
    if "second_system" not in doc:
        raise InputError("kk-classify needs a 'second_system' field")
    s_b = parse_system(doc)
    s_sb = parse_system(doc, "second_system")
    kk = _classify.classify_kk(s_b, s_sb)
    return _report("kk-classify", doc, kk.to_json())


def cmd_ml(args):
    doc = load_document(args.file)
    cert = invsys.is_mittag_leffler(parse_system(doc))
    return _report("ml", doc, cert.to_json())


def cmd_surjectivize(args):
    doc = load_document(args.file)
    out = invsys.surjectivize(parse_system(doc))
    return _report("surjectivize", doc, out.to_json())


def cmd_kernels(args):
    doc = load_document(args.file)
    s = parse_system(doc)
    seq = invsys.kernel_sequence(s)
    verdict = [
        {"level": lvl, "group": g.to_json(), "finite": fin} for lvl, g, fin in seq
    ]
    return _report("kernels", doc, verdict)


def _require_positive(flag, value):
    if value is not None and value < 1:
        raise InputError(f"{flag} must be >= 1, got {value}")


def cmd_sample(args):
    _require_positive("--level", args.level)
    _require_positive("--cap", args.cap)
    doc = load_document(args.file)
    s = parse_system(doc)
    tuples = prospace.enumerate_tuples(s, args.level, cap=args.cap)
    return _report("sample", doc, [t.to_json() for t in tuples])


def _tuple_arg(flag, text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{flag}: tuple argument is not valid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise InputError(f"{flag}: tuple argument is nested too deeply") from exc


def cmd_metric(args):
    doc = load_document(args.file)
    s = parse_system(doc)
    x = prospace.CoherentTuple.from_json(s, _tuple_arg("--x", args.x), "--x")
    y = prospace.CoherentTuple.from_json(s, _tuple_arg("--y", args.y), "--y")
    d = prospace.metric(x, y)
    return _report("metric", doc, {"distance": str(d), **d.to_json()})


def cmd_dense(args):
    _require_positive("--budget", args.budget)
    _require_positive("--cap", args.cap)
    doc = load_document(args.file)
    s = parse_system(doc)
    fam = prospace.dense_family(s, args.budget, cap=args.cap)
    return _report("dense", doc, [t.to_json() for t in fam])


_SPLIT_DEMOS = {
    "mixed": "Z/2 discrete x Z/3 indiscrete (product topology)",
    "discrete-z4": "Z/4 with the discrete topology",
    "indiscrete-z2": "Z/2 with the indiscrete topology",
}


def _split_demo_space(name):
    if name == "mixed":
        a = topgrp.FiniteTopAbGroup.discrete(fgab.Zmod(2))
        b = topgrp.FiniteTopAbGroup.indiscrete(fgab.Zmod(3))
        return topgrp.FiniteTopAbGroup.product(a, b)
    if name == "discrete-z4":
        return topgrp.FiniteTopAbGroup.discrete(fgab.Zmod(4))
    if name == "indiscrete-z2":
        return topgrp.FiniteTopAbGroup.indiscrete(fgab.Zmod(2))
    raise InputError(
        f"unknown demo {name!r}; available: {', '.join(sorted(_SPLIT_DEMOS))}"
    )


def cmd_split_demo(args):
    top = _split_demo_space(args.name)
    _cl, cl_elems = topgrp.closure_of_zero(top)
    ctx = topgrp.SplittingContext(top)
    reports = []
    for sec in ctx.sections():
        rep = topgrp.splitting_check(top, sec, ctx)
        reports.append(rep.to_json())
        if not rep.ok:
            break
    zero_i = top.index[top.group.zero()]
    basis = [m for m in top.basis_masks() if m >> zero_i & 1]
    verdict = {
        "space": _SPLIT_DEMOS[args.name],
        "closure_of_zero": [list(e) for e in cl_elems],
        "sections_checked": len(reports),
        "all_sections_pass": all(
            r["forward_continuous"] and r["inverse_continuous"] and r["sandwich_ok"]
            for r in reports
        ),
        "translated_basis_ok": topgrp.translated_basis_check(top, basis),
        "reports": reports,
    }
    return {"command": "split-demo", "name": args.name, "verdict": verdict}


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by later ones.

    Parsing does not change it, and help, usage and errors look up the
    terminal width and sys.stdout/sys.stderr when they are printed.  Its
    `commands` attribute maps each command name to that command's parser.
    """
    ap = argparse.ArgumentParser(
        prog="prolim",
        description=(
            "Exact engine for inverse limits of finitely generated abelian "
            "groups: classification, Mittag-Leffler certificates, "
            "surjectivization, and the limit-space toolbox."
        ),
    )
    ap.add_argument(
        "--version",
        action="version",
        version=f"prolim {prolim.__version__} (backend: {prolim.BACKEND})",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="five-class topology verdict")
    p.add_argument("file")
    p.add_argument("--trace", action="store_true", help="include the derivation trace")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("kk-classify", help="ten-class composite verdict")
    p.add_argument("file")
    p.set_defaults(fn=cmd_kk_classify)

    p = sub.add_parser("ml", help="Mittag-Leffler certificate")
    p.add_argument("file")
    p.set_defaults(fn=cmd_ml)

    p = sub.add_parser("surjectivize", help="restrict to the stable images")
    p.add_argument("file")
    p.set_defaults(fn=cmd_surjectivize)

    p = sub.add_parser("kernels", help="kernel sequence of a surjective system")
    p.add_argument("file")
    p.set_defaults(fn=cmd_kernels)

    p = sub.add_parser("sample", help="enumerate coherent tuples at a level")
    p.add_argument("file")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("metric", help="distance between two truncated tuples")
    p.add_argument("file")
    p.add_argument("--x", required=True, help="tuple as JSON")
    p.add_argument("--y", required=True, help="tuple as JSON")
    p.set_defaults(fn=cmd_metric)

    p = sub.add_parser("dense", help="dense family up to a budget level")
    p.add_argument("file")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(fn=cmd_dense)

    p = sub.add_parser("split-demo", help="splitting verification for a named space")
    p.add_argument("name")
    p.set_defaults(fn=cmd_split_demo)

    ap.commands = sub.choices
    return ap


def parse_args(argv):
    """The parsed arguments; argparse exits on help, version and errors.

    A call that names a command is parsed by that command's parser alone.
    Anything else, and a call that leaves arguments over, goes through the
    full parser, so every help, usage and error text is the one it prints.
    """
    ap = build_parser()
    if argv and argv[0] in ap.commands:
        args, rest = ap.commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0])
        )
        if not rest:
            return args
    return ap.parse_args(argv)


def main(argv=None):
    # Documents and reports hold exact integers of any length; the default
    # 4300-digit limit on int <-> str conversion (Python 3.10.7+) would turn
    # a long one into a traceback.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        report = args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(canonical_json(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
