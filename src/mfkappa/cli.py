"""Command-line interface: generate | analyze | classify | sweep | plot.

Exit codes: 0 success, 1 I/O or parse failure, 2 bad generator spec or bad
flags, 3 sizing refusal; an MfkError carries its code as exit_code.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import geometry, oracles, spectrum
from .errors import MfkError, SizingViolation, SpecError
from .measure import atomic_write, read_dust, write_dust
from .spectrum import SizingStatus

EXIT_OK = 0
EXIT_IO = 1
EXIT_SIZING = 3


def _warn(msg: str) -> None:
    tag = "\x1b[33mwarning:\x1b[0m" if sys.stderr.isatty() else "warning:"
    sys.stderr.write(f"{tag} {msg}\n")


def _error(msg: str) -> None:
    sys.stderr.write(f"error: {msg}\n")


def _load_spec(path) -> oracles.SelfSimilarSpec:
    with open(path) as fh:
        try:
            return oracles.SelfSimilarSpec.from_dict(json.load(fh))
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"{path}: bad spec: {type(exc).__name__}: {exc}")


def _selfsimilar_spec_from_args(args) -> oracles.SelfSimilarSpec:
    if args.spec:
        return _load_spec(args.spec)
    r1 = args.r
    r2 = args.r2 if args.r2 is not None else args.r
    return oracles.SelfSimilarSpec(
        p=(args.p, 1.0 - args.p), r=(r1, r2), depth=args.depth,
        S=args.S, seed=args.seed)


def cmd_generate(args) -> int:
    if args.kind == "farey":
        dust = oracles.gen_farey(args.Q)
        header = {"kind": "farey", "Q": args.Q}
    elif args.kind == "uniform":
        dust = oracles.gen_uniform(args.S, mode=args.mode, seed=args.seed)
        header = {"kind": "uniform", "S": args.S, "mode": args.mode,
                  "seed": args.seed}
    elif args.kind == "selfsimilar":
        spec = _selfsimilar_spec_from_args(args)
        dust = oracles.gen_selfsimilar(spec)
        header = {"kind": "selfsimilar", "spec": json.dumps(spec.as_dict())}
    else:  # superposed
        spec_a = _load_spec(args.spec_a)
        spec_b = _load_spec(args.spec_b)
        dust = oracles.gen_superposed(spec_a, spec_b, args.mix,
                                      disjoint=args.disjoint)
        header = {"kind": "superposed", "mix": args.mix,
                  "disjoint": args.disjoint,
                  "spec_a": json.dumps(spec_a.as_dict()),
                  "spec_b": json.dumps(spec_b.as_dict())}
    write_dust(dust, args.out, header=header)
    return EXIT_OK


def _resolve_sizing(args, S: int) -> tuple[int, int]:
    if args.auto_size:
        if args.boxes is not None or args.bins is not None:
            raise SpecError("--auto-size is mutually exclusive with "
                            "--boxes/--bins")
        return spectrum.auto_size(S)
    if args.boxes is None or args.bins is None:
        raise SpecError("need --boxes and --bins, or --auto-size")
    return args.boxes, args.bins


def cmd_analyze(args) -> int:
    dust = read_dust(args.input)
    B, A = _resolve_sizing(args, dust.sample_size)
    try:
        spec = spectrum.estimate(dust, B, A, force=args.force)
    except SizingViolation as exc:
        _error(f"sizing violation: {exc} (use --force to override)")
        return EXIT_SIZING
    if spec.params.sizing.status is SizingStatus.WARNING:
        for msg in spec.params.sizing.messages:
            _warn(msg)
    text = spectrum.format_spectrum_csv(spec)
    if args.out:
        atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _geometry_config(args) -> geometry.GeometryConfig:
    return geometry.GeometryConfig(
        residual_tol=args.segment_tol, min_run=args.min_run,
        gap_threshold=args.gap_threshold, tol=args.cap_tol)


def cmd_classify(args) -> int:
    spec = spectrum.read_spectrum_csv(args.input)
    report = geometry.classify(spec, _geometry_config(args))
    text = report.to_json() + "\n"
    if args.out:
        atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_sweep(args) -> int:
    dust = read_dust(args.input)
    try:
        B_list = [int(b) for b in args.boxes.split(",") if b]
    except ValueError:
        raise SpecError(f"--boxes must list integers, got {args.boxes!r}")
    if not B_list:
        raise SpecError("--boxes must name at least one box count")
    A = args.bins if args.bins is not None else spectrum.auto_size(
        dust.sample_size)[1]
    entries = spectrum.sweep_boxes(dust, B_list, A, force=args.force)
    ok_entries = [e for e in entries if e.spectrum is not None]
    if not ok_entries:
        _error("every sweep entry failed")
        for e in entries:
            _error(f"  B={e.B}: {e.error}")
        return EXIT_SIZING
    csv_paths = {}
    for e in ok_entries:
        path = f"{args.out_prefix}_B{e.B}.csv"
        spectrum.write_spectrum_csv(e.spectrum, path)
        csv_paths[e.B] = path
    report = {
        "A": A,
        "entries": [
            {"B": e.B, "csv": csv_paths.get(e.B), "error": e.error}
            for e in entries
        ],
    }
    if len(ok_entries) >= 2:
        feats = [geometry.features(e.spectrum) for e in ok_entries]
        report["trend"] = geometry.compare_sweep(feats)
    else:
        report["trend"] = "NeedsSweep"
    report_path = f"{args.out_prefix}_report.json"
    atomic_write(report_path, json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def cmd_plot(args) -> int:
    from .svgplot import render_spectra_svg
    spectra = [spectrum.read_spectrum_csv(p) for p in args.inputs]
    svg = render_spectra_svg(spectra, gap_threshold=args.gap_threshold)
    atomic_write(args.out, svg)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mfk",
        description="Multifractal spectra of Cantor dusts by the histogram "
                    "method, with regime classification.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic dust file")
    g.add_argument("kind",
                   choices=["selfsimilar", "superposed", "farey", "uniform"])
    g.add_argument("--p", type=float, default=0.5,
                   help="first cascade weight (second is 1-p)")
    g.add_argument("--r", type=float, default=1 / 3,
                   help="first contraction ratio")
    g.add_argument("--r2", type=float, default=None,
                   help="second contraction ratio (defaults to --r)")
    g.add_argument("--depth", type=int, default=13)
    g.add_argument("--S", type=int, default=10_000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--Q", type=int, default=200,
                   help="max denominator for farey")
    g.add_argument("--mode", choices=["equispaced", "random"],
                   default="equispaced")
    g.add_argument("--spec", help="selfsimilar spec JSON file")
    g.add_argument("--spec-a", help="first spec JSON (superposed)")
    g.add_argument("--spec-b", help="second spec JSON (superposed)")
    g.add_argument("--mix", type=float, default=0.5)
    g.add_argument("--disjoint", action="store_true",
                   help="place the two measures on disjoint half-segments")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    a = sub.add_parser("analyze", help="estimate a spectrum from a dust file")
    a.add_argument("input")
    a.add_argument("--boxes", type=int, default=None)
    a.add_argument("--bins", type=int, default=None)
    a.add_argument("--auto-size", action="store_true")
    a.add_argument("--force", action="store_true",
                   help="proceed despite a sizing Violation")
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_analyze)

    c = sub.add_parser("classify", help="classify a spectrum CSV")
    c.add_argument("input")
    c.add_argument("--gap-threshold", type=float, default=None)
    c.add_argument("--segment-tol", type=float, default=0.02)
    c.add_argument("--min-run", type=int, default=None)
    c.add_argument("--cap-tol", type=float, default=0.2)
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_classify)

    s = sub.add_parser("sweep", help="estimate spectra over several box counts")
    s.add_argument("input")
    s.add_argument("--boxes", required=True,
                   help="comma-separated box counts, e.g. 100,200")
    s.add_argument("--bins", type=int, default=None)
    s.add_argument("--force", action="store_true")
    s.add_argument("--out-prefix", required=True)
    s.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", help="render spectra to SVG")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--gap-threshold", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MfkError as exc:
        _error(str(exc))
        return exc.exit_code
    except OSError as exc:
        _error(str(exc))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
