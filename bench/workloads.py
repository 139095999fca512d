"""The four benchmark workloads: their inputs, operations and output digests.

Every input is made from a variant number (`seed % VARIANTS`, see run.py),
so the same seed always gives the same inputs and every variant has
reference outputs recorded in reference.json. Library calls go through
module attributes (`spectrum.sweep_boxes`, not a local alias) so that the
traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from mfkappa import cli, geometry, measure, oracles, spectrum, svgplot

VARIANTS = 16
KINDS = ("binomial", "cantor", "superposed", "uniform")

# Input sizes. "smoke" is the reduced size the smoke test runs.
SIZES = {
    "full": {"field_S": 10**6, "sweep_S": 10**7, "gen_S": 10**6,
             "farey_Q": 1000, "regime_S": (10**4, 10**5, 10**6)},
    "smoke": {"field_S": 10**4, "sweep_S": 10**5, "gen_S": 10**4,
              "farey_Q": 50, "regime_S": (10**3, 10**4)},
}


def _cascade(p, r, depth, S, seed) -> dict:
    return {"p": list(p), "r": list(r), "depth": depth, "S": S, "seed": seed}


def _spec(d: dict) -> oracles.SelfSimilarSpec:
    return oracles.SelfSimilarSpec.from_dict(d)


def superposed_specs(S: int, seed: int) -> tuple[dict, dict]:
    """Two middle-gap cascades (ratios 1/3 and 1/9) sharing S points."""
    return (_cascade((0.5, 0.5), (1 / 3, 1 / 3), 8, S // 2, seed),
            _cascade((0.5, 0.5), (1 / 9, 1 / 9), 8, S - S // 2, seed + 1))


def make_dust(kind: str, S: int, seed: int) -> measure.CantorDust:
    if kind == "binomial":
        return oracles.gen_selfsimilar(
            _spec(_cascade((0.3, 0.7), (0.5, 0.5), 13, S, seed)))
    if kind == "cantor":
        return oracles.gen_selfsimilar(
            _spec(_cascade((0.5, 0.5), (1 / 3, 1 / 3), 13, S, seed)))
    if kind == "superposed":
        a, b = superposed_specs(S, seed)
        return oracles.gen_superposed(_spec(a), _spec(b), 0.5, disjoint=True)
    if kind == "uniform":
        return oracles.gen_uniform(S, mode="random", seed=seed)
    raise ValueError(kind)


def kind_seed(variant: int, k: int) -> int:
    return 1000 * variant + 10 * k


# --- digests: what a reference records about an output ----------------------

def array_digest(*arrays) -> dict:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return {"n": int(np.size(arrays[0])), "sha256": h.hexdigest()}


def report_digest(d: dict) -> dict:
    """Labels, runs and ranges are compared exactly; floats within FLOAT_TOL."""
    seg, frag = d["segment"], d["fragmentation"]
    return {"regime": d["regime"], "segment_found": seg["found"],
            "segment_run": seg["run"], "fragments": frag["fragments"],
            "features": d["features"], "segment_slope": seg["slope"],
            "segment_residual": seg["residual"], "gaps": frag["gaps"],
            "gap_threshold": frag["gap_threshold"]}


def read_numbers(path, columns: int = 1) -> list[np.ndarray]:
    """Float64 values of a dust file or spectrum CSV, '#' lines and the
    'alpha,f' header skipped. Python's float() rounds correctly, so repr-
    written values come back bit for bit."""
    with open(path) as fh:
        rows = [ln for ln in fh.read().split("\n")
                if ln and not ln.startswith("#") and ln != "alpha,f"]
    if columns == 1:
        return [np.fromiter(map(float, rows), np.float64, len(rows))]
    cells = [ln.split(",") for ln in rows]
    return [np.array([float(c[k]) for c in cells]) for k in range(columns)]


def sweep_digest(out) -> dict:
    specs, reports, trend, svg = out
    return {"ok": len(specs),
            "spectra": [array_digest(s.alphas, s.fs) for s in specs],
            "reports": [report_digest(r.as_dict()) for r in reports],
            "trend": trend,
            "svg": {"series": svg.count('<g class="series"'),
                    "polylines": svg.count("<polyline"),
                    "circles": svg.count("<circle")}}


FLOAT_TOL = 1e-9


def matches(ref, got) -> bool:
    if isinstance(ref, float) or isinstance(got, float):
        if not isinstance(ref, (int, float)) or \
                not isinstance(got, (int, float)) or \
                isinstance(ref, bool) or isinstance(got, bool):
            return False
        if math.isinf(ref) or math.isinf(got):
            return ref == got
        return abs(ref - got) <= FLOAT_TOL
    if isinstance(ref, dict):
        return isinstance(got, dict) and ref.keys() <= got.keys() and \
            all(matches(v, got[k]) for k, v in ref.items())
    if isinstance(ref, (list, tuple)):
        return isinstance(got, (list, tuple)) and len(ref) == len(got) and \
            all(matches(a, b) for a, b in zip(ref, got))
    return ref == got


# --- operations ----------------------------------------------------------

@dataclass
class Op:
    """One unit of user work.

    CLI ops carry `argvs` (mfk commands run in order) and `digest()` reads
    the files they wrote; in-process ops carry `call()` and `digest(result)`.
    """
    key: str
    items: int
    digest: object
    argvs: list = field(default_factory=list)
    call: object = None


def mfk_command(argv) -> list[str]:
    return [sys.executable, "-m", "mfkappa.cli", *argv]


class Workload:
    name = ""
    item = ""         # what items_per_s counts: "points" or "spectra"
    cli = False       # ops are mfk commands run as subprocesses

    def __init__(self, size: str, variant: int, work: str, env: dict):
        self.size = size
        self.sz = SIZES[size]
        self.variant = variant
        self.work = work
        self.env = env
        self.ops: list[Op] = []

    def setup(self) -> None:
        """Build the inputs and self.ops."""
        raise NotImplementedError

    def setup_digest(self) -> dict:
        """Digests of what set-up computed with the program, checked against
        the reference outside the timed set-up."""
        return {}

    def warm_up(self) -> None:
        """One interpreter start with the package imported, so the first
        timed op does not pay for a cold file cache."""
        subprocess.run(mfk_command(["--help"]), env=self.env, check=True,
                       stdout=subprocess.DEVNULL, timeout=120)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


class FieldCli(Workload):
    name = "field-cli"
    item = "points"
    cli = True

    def setup(self) -> None:
        S = self.sz["field_S"]
        self.ops = []
        for k, kind in enumerate(KINDS):
            seed = kind_seed(self.variant, k)
            dust_path = self.path(f"{kind}.txt")
            measure.write_dust(make_dust(kind, S, seed), dust_path,
                               header={"kind": kind, "seed": seed})
            self.ops.append(analyze_op(kind, dust_path, S))
        self.warm_up()


def analyze_op(key: str, dust_path: str, items: int) -> Op:
    """`mfk analyze --auto-size` then `mfk classify` on one dust file."""
    stem = os.path.splitext(dust_path)[0]
    csv, rep = stem + ".csv", stem + ".json"

    def digest():
        with open(rep) as fh:
            report = json.load(fh)
        return {"spectrum": array_digest(*read_numbers(csv, 2)),
                "report": report_digest(report)}
    return Op(key=key, items=items, digest=digest,
              argvs=[["analyze", dust_path, "--auto-size", "--out", csv],
                     ["classify", csv, "--out", rep]])


class Sweep1e7(Workload):
    name = "sweep-1e7"
    item = "spectra"

    def setup(self) -> None:
        self.ops = []
        dust = make_dust("binomial", self.sz["sweep_S"],
                         kind_seed(self.variant, 0))
        S = dust.sample_size
        _, A = spectrum.auto_size(S)
        # ~11 box counts spanning the sizing window [A^2, 2 sqrt(S)]
        hi = math.floor(2 * math.sqrt(S))
        Bs = sorted({int(b) for b in np.geomspace(A * A, hi, 11)})

        def call():
            entries = spectrum.sweep_boxes(dust, Bs, A)
            specs = [e.spectrum for e in entries if e.spectrum is not None]
            reports = [geometry.classify(s) for s in specs]
            feats = [geometry.features(s) for s in specs]
            trend = geometry.compare_sweep(feats)
            svg = svgplot.render_spectra_svg(specs)
            return specs, reports, trend, svg

        self.ops.append(Op(key="sweep", items=len(Bs), call=call,
                           digest=sweep_digest))
        self.dust, self.boxes = dust, Bs

    def setup_digest(self) -> dict:
        return {"dust": array_digest(self.dust.points), "boxes": self.boxes}


class GenerateCli(Workload):
    name = "generate-cli"
    item = "points"
    cli = True

    def setup(self) -> None:
        S, Q = self.sz["gen_S"], self.sz["farey_Q"]
        seed = kind_seed(self.variant, 0)
        spec_a, spec_b = superposed_specs(S, seed + 1)
        paths = {}
        for name, d in (("spec_a", spec_a), ("spec_b", spec_b)):
            paths[name] = self.path(f"{name}.json")
            with open(paths[name], "w") as fh:
                json.dump(d, fh)
        out = {k: self.path(f"gen-{k}.txt")
               for k in ("selfsimilar", "superposed", "farey", "uniform")}
        commands = {
            "selfsimilar": ["selfsimilar", "--p", "0.3", "--r", "0.5",
                            "--depth", "13", "--S", str(S),
                            "--seed", str(seed)],
            "superposed": ["superposed", "--spec-a", paths["spec_a"],
                           "--spec-b", paths["spec_b"], "--mix", "0.5",
                           "--disjoint"],
            "farey": ["farey", "--Q", str(Q)],
            "uniform": ["uniform", "--mode", "random", "--S", str(S),
                        "--seed", str(seed + 2)],
        }
        self.ops = []
        for key, argv in commands.items():
            items = _farey_size(Q) if key == "farey" else S
            self.ops.append(Op(
                key=key, items=items,
                argvs=[["generate", *argv, "--out", out[key]]],
                digest=self._digest_fn(out[key])))
        self.warm_up()

    @staticmethod
    def _digest_fn(path):
        # Equal bytes parse to equal values, so each distinct file is parsed
        # once per run; parsing 1e6 lines takes a quarter of an op.
        parsed = {}

        def digest():
            with open(path, "rb") as fh:
                key = hashlib.sha256(fh.read()).hexdigest()
            if key not in parsed:
                parsed[key] = array_digest(*read_numbers(path))
            return parsed[key]
        return digest


class Cli(Workload):
    """The CLI path end to end: each generate-cli op, then an op that runs
    `mfk analyze --auto-size` and `mfk classify` on the dust it wrote, as a
    field-cli op does.

    The gated stand-in for field-cli and generate-cli. Its set-up is
    generate-cli's (two spec files and a warm-up), so a run spends its time
    on ops: the host's CPU speed swings for about a minute at a time, and
    only runs of 40 s or more average over that.
    """
    name = "cli"
    item = "points"
    cli = True

    def setup(self) -> None:
        gen = GenerateCli(self.size, self.variant, self.work, self.env)
        gen.setup()
        self.ops = []
        for op in gen.ops:
            self.ops += [Op(key=f"generate/{op.key}", items=op.items,
                            argvs=op.argvs, digest=op.digest),
                         analyze_op(f"analyze/{op.key}", op.argvs[0][-1],
                                    op.items)]


def _farey_size(Q: int) -> int:
    """Points in the Farey dust of order Q: 1 + sum of Euler's phi(1..Q)."""
    phi = np.arange(Q + 1)
    for p in range(2, Q + 1):
        if phi[p] == p:
            phi[p::p] -= phi[p::p] // p
    return int(1 + phi[1:].sum())


class RegimeScan(Workload):
    name = "regime-scan"
    item = "spectra"

    def setup(self) -> None:
        self.ops = []
        self.spectra = {}
        configs = (("default", geometry.GeometryConfig()),
                   ("min_run4", geometry.GeometryConfig(min_run=4)))
        for S in self.sz["regime_S"]:
            B, A = spectrum.auto_size(S)
            B2 = int(1.8 * B)
            A2 = max(3, math.isqrt(B2) - 1)
            for k, kind in enumerate(KINDS):
                dust = make_dust(kind, S, kind_seed(self.variant, k))
                for b, a in ((B, A), (B2, A2)):
                    spec = spectrum.estimate(dust, b, a)
                    tag = f"S{S}-{kind}-B{b}"
                    self.spectra[tag] = spec
                    for cname, cfg in configs:
                        self.ops.append(Op(
                            key=f"{tag}-{cname}", items=1,
                            call=_classify_call(spec, cfg),
                            digest=lambda r: report_digest(r.as_dict())))

    def setup_digest(self) -> dict:
        return {tag: array_digest(s.alphas, s.fs)
                for tag, s in self.spectra.items()}


def _classify_call(spec, cfg):
    return lambda: geometry.classify(spec, cfg)


WORKLOADS = {w.name: w for w in (Cli, FieldCli, Sweep1e7, GenerateCli,
                                  RegimeScan)}


def run_inprocess_cli(argvs) -> None:
    """Run mfk commands through cli.main in this process."""
    for argv in argvs:
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"mfk {argv[0]} exited with {code}")
