"""Command-line interface: generate | analyze | classify | sweep | plot.

A thin shell over the library. `mfk generate` has one sub-parser per dust
kind, each taking only the flags that kind reads, so a flag meant for
another kind is refused rather than ignored. Classify flags that are not
given leave GeometryConfig's defaults in force. Every failure, a bad flag
included, ends in main's one handler: a single `error:` line on stderr and
the exit code the error class carries (MfkError.exit_code, which an
OSError or MemoryError shares with the base class): 1 I/O, parse or
allocation failure, 2 bad generator spec or bad flags, 3 sizing refusal.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields

from . import geometry, oracles, spectrum
from .errors import MfkError, SizingViolation, SpecError
from .measure import atomic_write, read_dust, write_dust
from .spectrum import SizingStatus


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a bad flag is a SpecError, reported by main
        raise SpecError(f"{self.prog}: {message}")


def _emit(text: str, out) -> None:
    if out:
        atomic_write(out, [text])
    else:
        sys.stdout.write(text)


def _warn(spec: spectrum.Spectrum) -> None:
    """One `warning:` line on stderr per sizing note of a Warning-band
    spectrum; the tag is coloured only on a terminal."""
    if spec.sizing is SizingStatus.WARNING:
        tag = "\x1b[33mwarning:\x1b[0m" if sys.stderr.isatty() else "warning:"
        for msg in spec.sizing_notes:
            sys.stderr.write(f"{tag} {msg}\n")


def _load_spec(path) -> oracles.SelfSimilarSpec:
    with open(path) as fh:
        try:
            return oracles.SelfSimilarSpec.from_dict(json.load(fh))
        except (TypeError, ValueError, OverflowError, SpecError) as exc:
            raise SpecError(f"{path}: bad spec: {type(exc).__name__}: {exc}")


# Each generator maps its kind's flags to (dust, header); cmd_generate adds
# the kind.
def _selfsimilar(args):
    r2 = args.r if args.r2 is None else args.r2
    spec = oracles.SelfSimilarSpec(p=(args.p, 1.0 - args.p), r=(args.r, r2),
                                   depth=args.depth, S=args.S,
                                   seed=args.seed or 0)
    return oracles.gen_selfsimilar(spec), {"spec": json.dumps(asdict(spec))}


def _superposed(args):
    spec_a, spec_b = _load_spec(args.spec_a), _load_spec(args.spec_b)
    dust = oracles.gen_superposed(spec_a, spec_b, args.mix,
                                  disjoint=args.disjoint)
    return dust, {"mix": args.mix, "disjoint": args.disjoint,
                  "spec_a": json.dumps(asdict(spec_a)),
                  "spec_b": json.dumps(asdict(spec_b))}


def _farey(args):
    return oracles.gen_farey(args.Q), {"Q": args.Q}


def _uniform(args):
    if args.mode == "equispaced" and args.seed is not None:
        raise SpecError("--seed needs --mode random: equispaced dusts "
                        "draw nothing")
    header = {"S": args.S, "mode": args.mode}
    if args.mode == "random":
        header["seed"] = args.seed or 0
    dust = oracles.gen_uniform(args.S, mode=args.mode, seed=args.seed or 0)
    return dust, header


def cmd_generate(args) -> None:
    dust, header = args.make(args)
    write_dust(dust, args.out, header={"kind": args.kind, **header})


def _resolve_sizing(args, S: int) -> tuple[int, int]:
    if args.auto_size:
        if args.boxes is not None or args.bins is not None:
            raise SpecError("--auto-size is mutually exclusive with "
                            "--boxes/--bins")
        return spectrum.auto_size(S)
    if args.boxes is None or args.bins is None:
        raise SpecError("need --boxes and --bins, or --auto-size")
    return args.boxes, args.bins


def cmd_analyze(args) -> None:
    dust = read_dust(args.input)
    B, A = _resolve_sizing(args, dust.sample_size)
    try:
        spec = spectrum.estimate(dust, B, A, force=args.force)
    except SizingViolation as exc:
        raise SizingViolation(f"sizing violation: {exc} "
                              "(use --force to override)") from None
    _warn(spec)
    _emit(spectrum.format_spectrum_csv(spec), args.out)


def cmd_classify(args) -> None:
    spec = spectrum.read_spectrum_csv(args.input)
    given = {f.name: getattr(args, f.name)
             for f in fields(geometry.GeometryConfig)
             if getattr(args, f.name) is not None}
    report = geometry.classify(spec, geometry.GeometryConfig(**given))
    _emit(report.to_json() + "\n", args.out)


def cmd_sweep(args) -> None:
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
    refusals = [None if e.error is None
                else f"{type(e.error).__name__}: {e.error}" for e in entries]
    ok_entries = [e for e in entries if e.spectrum is not None]
    if not ok_entries:  # the gravest refusal sets the exit code: 3 over 2
        worst = max((e.error for e in entries), key=lambda exc: exc.exit_code)
        raise type(worst)("every sweep entry failed: " + "; ".join(
            f"B={e.B}: {text}" for e, text in zip(entries, refusals)))
    csv_paths = {}
    for e in {e.B: e for e in ok_entries}.values():  # once per distinct B
        _warn(e.spectrum)
        path = f"{args.out_prefix}_B{e.B}.csv"
        spectrum.write_spectrum_csv(e.spectrum, path)
        csv_paths[e.B] = path
    report = {"A": A, "entries": [
        {"B": e.B, "csv": csv_paths.get(e.B), "error": text}
        for e, text in zip(entries, refusals)]}
    feats = [geometry.features(e.spectrum) for e in ok_entries]
    report["trend"] = (geometry.compare_sweep(feats) if len(feats) >= 2
                       else "NeedsSweep")
    atomic_write(f"{args.out_prefix}_report.json",
                 [json.dumps(report, indent=2, allow_nan=False) + "\n"])


def cmd_plot(args) -> None:
    from .svgplot import render_spectra_svg
    spectra = [spectrum.read_spectrum_csv(p) for p in args.inputs]
    svg = render_spectra_svg(spectra, gap_threshold=args.gap_threshold)
    atomic_write(args.out, [svg])


def _generate_parsers(kinds) -> None:
    sample = argparse.ArgumentParser(add_help=False)  # sampled dusts' flags
    sample.add_argument("--S", type=int, default=10_000)
    sample.add_argument("--seed", type=int, default=None)  # None reads as 0

    def kind(name, make, summary, parents=()):
        k = kinds.add_parser(name, help=summary, parents=list(parents))
        k.add_argument("--out", required=True)
        k.set_defaults(func=cmd_generate, make=make)
        return k

    k = kind("selfsimilar", _selfsimilar, "two-branch cascade", [sample])
    k.add_argument("--p", type=float, default=0.5,
                   help="first cascade weight (second is 1-p)")
    k.add_argument("--r", type=float, default=1 / 3,
                   help="first contraction ratio")
    k.add_argument("--r2", type=float, default=None,
                   help="second contraction ratio (defaults to --r)")
    k.add_argument("--depth", type=int, default=13)

    k = kind("superposed", _superposed, "mixture of two cascades")
    k.add_argument("--spec-a", required=True, help="first spec JSON file")
    k.add_argument("--spec-b", required=True, help="second spec JSON file")
    k.add_argument("--mix", type=float, default=0.5)
    k.add_argument("--disjoint", action="store_true",
                   help="place the two measures on disjoint half-segments")

    k = kind("farey", _farey, "reduced fractions in [0,1]")
    k.add_argument("--Q", type=int, default=200, help="max denominator")

    k = kind("uniform", _uniform, "uniform dust", [sample])
    k.add_argument("--mode", choices=["equispaced", "random"],
                   default="equispaced")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="mfk",
        description="Multifractal spectra of Cantor dusts by the histogram "
                    "method, with regime classification.")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic dust file")
    _generate_parsers(g.add_subparsers(dest="kind", required=True))

    a = sub.add_parser("analyze", help="estimate a spectrum from a dust file")
    a.add_argument("input")
    a.add_argument("--boxes", type=int, default=None)
    a.add_argument("--bins", type=int, default=None)
    a.add_argument("--auto-size", action="store_true")
    a.add_argument("--force", action="store_true",
                   help="proceed despite a sizing Violation")
    a.add_argument("--out", default=None)
    a.set_defaults(func=cmd_analyze)

    # dest names are GeometryConfig's fields; unset, its defaults hold
    c = sub.add_parser("classify", help="classify a spectrum CSV")
    c.add_argument("input")
    c.add_argument("--gap-threshold", type=float)
    c.add_argument("--segment-tol", type=float, dest="residual_tol")
    c.add_argument("--min-run", type=int)
    c.add_argument("--cap-tol", type=float, dest="tol")
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
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except (MfkError, OSError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return getattr(exc, "exit_code", MfkError.exit_code)
    return 0


if __name__ == "__main__":
    sys.exit(main())
