r"""Command-line front door for the numerical laboratory.

Subcommands cover the verification suites (algebra-verify, hessian-check),
flow tracing, group factorization, the porosity deciders on cubes and on
spheres, the decay experiments (fup-scan, fio-sphere), and exact word
counting (words-count).

Conventions shared by every command:

* ``--out`` directory collects all produced files.  Every command that writes
  files also writes a JSON manifest listing the command line, the resolved
  configuration, the seed, digests of the inputs, the output files and the
  environment (Python, numpy, scipy, BLAS, core count), so a run can be
  reproduced byte-for-byte.  algebra-verify writes no files and no manifest.
* numeric output is serialized with 17 significant digits;
* exit codes: 0 pass, 1 usage/configuration error, 2 counterexample or
  failed check, 3 inconclusive.  Input that cannot be run ends in exit 1 and
  one line on stdout, never a traceback.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import functools
import hashlib
import json
import math
import os
import platform
import sys

import numpy as np
import scipy

from . import __version__
from .lorentz_core import (
    DEFAULT_TOL,
    DecompositionError,
    GroupElement,
    LorentzError,
    _certify,
    _exp_boost,
    _frame_flows,
    _frame_word_draws,
    _frame_words,
    exp_flow,
    frame_basis,
    generator,
    geodesic_flow,
    kan_decompose,
    normalizer_decompose,
    parse_label,
    read_group_element,
    write_group_element,
)
from .porosity import (
    BoxSet,
    CantorSpec,
    Verdict,
    ball_porosity_check,
    cantor_generate,
    line_porosity_check,
)
from .fup_numerics import (
    FupConfig,
    SphereAtlas,
    _log_phase_fd_dets,
    fup_experiment,
    log_phase_hessian_factors,
    sphere_porosity_check,
)
from .word_combinatorics import bound_check

VERDICT_EXIT = {Verdict.CERTIFIED: 0, Verdict.COUNTEREXAMPLE: 2, Verdict.INCONCLUSIVE: 3}

# Errors that bad input raises from inside a command (LorentzError and
# ResolutionError are ValueErrors).  Set files and configs are JSON of any
# shape, so a wrongly typed field raises TypeError wherever it is first used.
INPUT_ERRORS = (OSError, ValueError, KeyError, TypeError)
CONFIG_COMMANDS = ("fup-scan", "fio-sphere")   # their input errors read "config error:"


@dataclasses.dataclass
class RunRecord:
    """What a command that wrote files hands to ``main`` for its manifest.

    Every ``cmd_*`` returns ``(exit code, RunRecord or None)``.
    """

    manifest: str                # file name inside --out
    config: dict
    inputs: list[str]
    outputs: list[str]
    seed: int | None = None      # None: the --seed value (0 when unset)


def _seed(args) -> int:
    return 0 if args.seed is None else int(args.seed)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    if x is None:
        return ""
    return str(x)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _environment() -> dict:
    """Interpreter, numerical libraries and core count that produced a run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}",
            "cpu_count": os.cpu_count()}


def write_manifest(out_dir: str, name: str, command: list[str], config: dict,
                   seed: int, inputs: list[str], outputs: list[str],
                   started: str, finished: str) -> str:
    payload = {
        "tool": "fuplab",
        "version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "started": started,
        "finished": finished,
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": outputs,
        "environment": _environment(),
    }
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def rerun_manifest(manifest_path: str, out_dir: str) -> int:
    """Re-execute the command recorded in a manifest into a fresh directory."""
    with open(manifest_path) as fh:
        payload = json.load(fh)
    argv = list(payload["command"])
    cleaned = []
    skip = False
    for tok in argv:
        if skip:
            skip = False
            continue
        if tok == "--out":
            skip = True
            continue
        cleaned.append(tok)
    # global flags precede the subcommand
    return main(["--out", out_dir] + cleaned)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_ladder(path: str, columns: list[str], rows: list[dict], fits: dict,
                  label: str) -> None:
    """Write ladder rows, then a ``# fit`` footer line per fit, printing each fit.

    A fit's key is its energy w, or None on grid cores; its stdout line is
    ``label`` followed by the key, e.g. ``fit w=1: ...`` or ``w=1: ...``.
    """
    _write_csv(path, columns, [[r[c] for c in columns] for r in rows])
    with open(path, "a", newline="") as fh:
        for key, fit in fits.items():
            tag = "" if key is None else f" w={_fmt(key)}"
            fh.write(f"# fit{tag} beta={_fmt(fit.beta)} intercept={_fmt(fit.intercept)} "
                     f"residual={_fmt(fit.residual)}\n")
            print(f"{(label + tag).lstrip()}: beta={_fmt(fit.beta)} "
                  f"residual={_fmt(fit.residual)}")


def _json_int(value, name: str) -> int:
    """An integer field of a JSON file; a float, boolean or string is refused, not cast."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {json.dumps(value)}")
    return value


def _cantor_set(decl: dict, n: int) -> BoxSet:
    """The n-dimensional Cantor set of a declaration's base, kept_digits and depth."""
    spec = CantorSpec.uniform(_json_int(decl["base"], "base"),
                              tuple(_json_int(d, "kept_digits") for d in decl["kept_digits"]),
                              _json_int(decl["depth"], "depth"), n)
    return cantor_generate(spec, n)


def set_from_spec(spec: dict) -> BoxSet:
    """Structured-text set declaration: a Cantor family or explicit boxes."""
    if "cantor" in spec:
        c = spec["cantor"]
        return _cantor_set(c, _json_int(c.get("dims", 1), "dims"))
    if "boxes" in spec:
        if "dims" in spec:
            n = _json_int(spec["dims"], "dims")
        elif spec["boxes"]:
            n = len(spec["boxes"][0][0])
        else:
            raise ValueError("empty box list needs an explicit 'dims' field")
        m = _json_int(spec["resolution"], "resolution")
        return BoxSet.from_boxes([(b[0], b[1]) for b in spec["boxes"]], m, n)
    raise ValueError("set spec must declare 'cantor' or 'boxes'")


def load_set_spec(path: str) -> BoxSet:
    with open(path) as fh:
        return set_from_spec(json.load(fh))


# ---------------------------------------------------------------------------
# algebra-verify


def _commutator_table_exact(n: int, flip_sign: bool = False) -> list[str]:
    """Names of failed relations of the frame bracket table (exact ints)."""
    from .lorentz_core import bracket

    x = generator("X", n=n, dtype=object)
    u = {(i, s): generator("U" + s, i, n=n, dtype=object)
         for i in range(1, n + 1) for s in "+-"}
    failures = []

    def expect(y, z, target, name):
        got = bracket(y, z).matrix
        if not np.array_equal(got, target):
            failures.append(name)

    for i in range(1, n + 1):
        up = u[(i, "+")].matrix * (-1 if flip_sign else 1)
        expect(x, u[(i, "+")], up, f"[X,U{i}+]=U{i}+")
        expect(x, u[(i, "-")], -(u[(i, "-")].matrix * 1), f"[X,U{i}-]=-U{i}-")
        expect(u[(i, "+")], u[(i, "-")], 2 * x.matrix, f"[U{i}+,U{i}-]=2X")
        for j in range(1, n + 1):
            if i == j:
                continue
            zero = np.zeros((n + 2, n + 2), dtype=object)
            expect(u[(i, "+")], u[(j, "+")], zero, f"[U{i}+,U{j}+]=0")
            expect(u[(i, "-")], u[(j, "-")], zero, f"[U{i}-,U{j}-]=0")
            rij = generator("R", min(i, j) + 1, max(i, j) + 1, n=n, dtype=object).matrix * 1
            sign = 1 if i < j else -1
            expect(u[(i, "+")], u[(j, "-")], 2 * sign * rij, f"[U{i}+,U{j}-]=2R")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            r = generator("R", i + 1, j + 1, n=n, dtype=object)
            expect(r, x, np.zeros((n + 2, n + 2), dtype=object), f"[R{i+1}{j+1},X]=0")
            for k in range(1, n + 1):
                for s in "+-":
                    target = np.zeros((n + 2, n + 2), dtype=object)
                    if j == k:
                        target = u[(i, s)].matrix * 1
                    elif i == k:
                        target = -(u[(j, s)].matrix * 1)
                    expect(r, u[(k, s)], target, f"[R{i+1}{j+1},U{k}{s}]")
    return failures


def _flow_compat_suite(n: int, rng: np.random.Generator) -> float:
    """Worst gap over 100 random certified frames g and times t between the
    columns 0 and 1 of g exp(tX) and the geodesic flow of g's phase point."""
    picks, times, t = [], [], []
    for _ in range(100):
        p, w = _frame_word_draws(rng, n)      # the draws of random_group_element
        picks.append(p)
        times.append(w)
        t.append(float(rng.uniform(-5.0, 5.0)))
    g = _certify(_frame_words(n, np.array(picks), np.array(times)))
    gt = g @ _exp_boost(n, 1, t)
    x, xi = geodesic_flow(g[:, :, 0], g[:, :, 1], t)
    return float(max(np.max(np.abs(x - gt[:, :, 0])), np.max(np.abs(xi - gt[:, :, 1]))))


def _horocyclic_suite(n: int, rng: np.random.Generator) -> float:
    """Worst entry of exp(sU) exp(-tX) - exp(-tX) exp(s e^{+-t} U) over 100 random
    (i, s, t), for U = U_i^+ and U_i^-."""
    i, s, t = [], [], []
    for _ in range(100):
        i.append(int(rng.integers(1, n + 1)))
        s.append(float(rng.uniform(-1.0, 1.0)))
        t.append(float(rng.uniform(-3.0, 3.0)))
    index = {y.label: k for k, y in enumerate(frame_basis(n))}
    back = _exp_boost(n, 1, [-tr for tr in t])
    worst = 0.0
    for sign, tag in ((1.0, "+"), (-1.0, "-")):
        picks = np.array([index[f"U{k}{tag}"] for k in i])
        lhs = _frame_flows(n, picks, np.array(s)) @ back
        scaled = np.array([sr * math.exp(sign * tr) for sr, tr in zip(s, t)])
        rhs = back @ _frame_flows(n, picks, scaled)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def cmd_algebra_verify(args) -> tuple[int, RunRecord | None]:
    rng = np.random.default_rng(_seed(args))
    status = 0
    for n in range(args.n_min, args.n_max + 1):
        failures = _commutator_table_exact(n, flip_sign=args.inject_sign_flip)
        if failures:
            print(f"n={n} commutator-table FAIL: {failures[0]}")
            status = 2
        else:
            print(f"n={n} commutator-table pass (exact)")
        flow_err = _flow_compat_suite(n, rng)
        print(f"n={n} flow-compatibility {'pass' if flow_err <= 1e-9 else 'FAIL'} "
              f"(worst {_fmt(flow_err)})")
        status = status or (0 if flow_err <= 1e-9 else 2)
        horo_err = _horocyclic_suite(n, rng)
        print(f"n={n} horocyclic-commutation {'pass' if horo_err <= 1e-8 else 'FAIL'} "
              f"(worst {_fmt(horo_err)})")
        status = status or (0 if horo_err <= 1e-8 else 2)
    return status, None


# ---------------------------------------------------------------------------
# flow-trace / group-decompose


def cmd_flow_trace(args) -> tuple[int, RunRecord | None]:
    if args.frame:
        q = read_group_element(args.frame, args.tol)
        inputs = [args.frame]
    else:
        q = GroupElement.identity(args.n)
        inputs = []
    n = q.n
    gen = parse_label(args.generator, n)
    ts = np.linspace(args.t0, args.t1, args.steps)
    rows = []
    for t in ts:
        flow = exp_flow(gen, float(t))
        with np.errstate(over="ignore", invalid="ignore"):   # reported below
            g = q @ flow
        if not np.isfinite(g.matrix).all():
            raise LorentzError(f"flow time t={float(t)!r} overflows: the flowed frame "
                               "leaves the float range")
        rows.append([t] + list(g.matrix[:, 0]) + list(g.matrix[:, 1]))
    header = ["t"] + [f"x{i}" for i in range(n + 2)] + [f"xi{i}" for i in range(n + 2)]
    out_csv = os.path.join(args.out, "flow_trace.csv")
    _write_csv(out_csv, header, rows)
    print(f"wrote {out_csv}")
    return 0, RunRecord("flow_trace.manifest.json",
                        dict(n=n, generator=args.generator, t0=args.t0, t1=args.t1,
                             steps=args.steps), inputs, [out_csv])


def cmd_group_decompose(args) -> tuple[int, RunRecord | None]:
    g = read_group_element(args.input, args.tol)
    try:
        if args.mode in ("kan+", "kan-"):
            sign = 1 if args.mode == "kan+" else -1
            fac = kan_decompose(g, sign, args.tol)
            factors = {"k": fac.k, "a": fac.a, "b": fac.b}
            err = float(np.max(np.abs(fac.product().matrix - g.matrix)))
            summary = (f"kan reconstruction error {_fmt(err)} t={_fmt(fac.t)} "
                       f"v={' '.join(_fmt(v) for v in fac.v)}")
        else:
            w, k, kind = normalizer_decompose(g, args.l, args.tol)
            factors = {"w": w, "k": k}
            err = float(np.max(np.abs((w @ k).matrix - g.matrix)))
            summary = f"normalizer decomposition kind={kind.value} error {_fmt(err)}"
    except DecompositionError as exc:
        print(f"decomposition failed: {exc}")
        return 2, None
    outputs = [os.path.join(args.out, f"factor_{tag}.txt") for tag in factors]
    for el, path in zip(factors.values(), outputs):
        write_group_element(el, path)
    print(summary)
    return (0 if err <= 100 * args.tol else 2), RunRecord(
        "group_decompose.manifest.json", dict(input=args.input, mode=args.mode, l=args.l,
                                              tol=args.tol), [args.input], outputs)


# ---------------------------------------------------------------------------
# porosity commands


def cmd_porosity_check(args) -> tuple[int, RunRecord | None]:
    x = load_set_spec(args.set)
    if args.mode == "ball":
        rep = ball_porosity_check(x, args.nu, args.alpha0, args.alpha1)
    else:
        rep = line_porosity_check(x, args.nu, args.alpha0, args.alpha1, args.directions)
    out_path = os.path.join(args.out, "porosity_report.txt")
    with open(out_path, "w") as fh:
        fh.write(rep.to_text())
    print(rep.to_text(), end="")
    return VERDICT_EXIT[rep.verdict], RunRecord(
        "porosity_report.manifest.json",
        dict(set=args.set, nu=args.nu, alpha0=args.alpha0, alpha1=args.alpha1,
             mode=args.mode, directions=args.directions), [args.set], [out_path])


def cmd_sphere_porosity(args) -> tuple[int, RunRecord | None]:
    with open(args.set) as fh:
        band = json.load(fh)["band"]
    base = _cantor_set(band, 1)
    lo, hi = (float(v) for v in band["arc"])

    def oracle(y):
        ang = (np.arctan2(y[:, 1], y[:, 0]) / (2 * np.pi)) % 1.0
        inside = (ang >= lo) & (ang < hi)
        frac = np.clip((ang - lo) / (hi - lo), 0.0, 1.0 - 1e-12)
        idx = (frac * base.m).astype(int)
        return inside & base.mask[idx]

    atlas = SphereAtlas.for_circle(args.charts)
    verdict, reports = sphere_porosity_check(oracle, args.nu, args.alpha0, args.alpha1,
                                             atlas, m=args.resolution, kind=args.mode,
                                             directions=args.directions)
    out_path = os.path.join(args.out, "sphere_porosity.txt")
    with open(out_path, "w") as fh:
        fh.write(f"aggregate={verdict.value} charts={atlas.chart_count}\n")
        for k, rep in enumerate(reports):
            fh.write(f"# chart {k}\n")
            fh.write(rep.to_text())
    print(f"aggregate={verdict.value}")
    return VERDICT_EXIT[verdict], RunRecord(
        "sphere_porosity.manifest.json",
        dict(set=args.set, nu=args.nu, alpha0=args.alpha0, alpha1=args.alpha1,
             mode=args.mode, charts=args.charts, resolution=args.resolution),
        [args.set], [out_path])


# ---------------------------------------------------------------------------
# decay experiments


def _config_from_json(path: str) -> tuple[FupConfig, dict]:
    with open(path) as fh:
        raw = json.load(fh)
    known = {f for f in FupConfig.__dataclass_fields__}
    bad = set(raw) - known
    if bad:
        raise ValueError(f"unknown config fields: {sorted(bad)}")
    parsed = dict(raw)
    for key in ("ladder", "cantor_kept"):
        if key in parsed:
            parsed[key] = tuple(_json_int(v, key) for v in parsed[key])
    for key in ("n", "cantor_base", "seed"):
        if key in parsed:
            _json_int(parsed[key], key)
    if "w_list" in parsed:
        parsed["w_list"] = tuple(float(v) for v in parsed["w_list"])
    for arc in ("arc_minus", "arc_plus"):
        if arc in parsed:
            parsed[arc] = tuple(float(v) for v in parsed[arc])
    for key in ("set_minus", "set_plus"):
        if parsed.get(key) is not None:
            parsed[key] = set_from_spec(parsed[key])
    return FupConfig(**parsed), raw


FUP_HEADER = ["core", "n", "N", "h", "rho", "norm", "iters", "converged"]
FIO_HEADER = ["core", "n", "N", "h", "rho", "w", "norm", "iters", "converged"]


def cmd_fup_scan(args) -> tuple[int, RunRecord | None]:
    cfg, raw_cfg = _config_from_json(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    rows, fits, ok = fup_experiment(cfg)
    out_csv = os.path.join(args.out, "fup_scan.csv")
    _write_ladder(out_csv, FUP_HEADER, rows, fits, "fit")
    print(f"sanity {'pass' if ok else 'FAIL'}; wrote {out_csv}")
    return (0 if ok else 2), RunRecord("fup_scan.manifest.json", raw_cfg, [args.config],
                                       [out_csv], cfg.seed)


def cmd_fio_sphere(args) -> tuple[int, RunRecord | None]:
    cfg = FupConfig(core="log_phase", n=1,
                    ladder=tuple(args.ladder), w_list=tuple(args.w),
                    rho=args.rho, seed=_seed(args))
    rows, fits, ok = fup_experiment(cfg)
    out_csv = os.path.join(args.out, "fio_sphere.csv")
    _write_ladder(out_csv, FIO_HEADER, rows, fits, "")
    passed = ok and bool(fits) and all(fit.beta > 0 for fit in fits.values())
    print(f"{'pass' if passed else 'FAIL'}; wrote {out_csv}")
    return (0 if passed else 2), RunRecord("fio_sphere.manifest.json", dataclasses.asdict(cfg),
                                           [], [out_csv])


# ---------------------------------------------------------------------------
# words-count / hessian-check


def cmd_words_count(args) -> tuple[int, RunRecord | None]:
    ladder = [float(args.base) ** (-j) for j in range(args.j_min, args.j_max + 1)]
    rows = bound_check(args.rho, args.alpha, ladder, args.slack)
    out_csv = os.path.join(args.out, "words_count.csv")
    _write_csv(out_csv, ["alpha", "rho", "h", "T0", "count", "ratio", "logC"],
               [[r["alpha"], r["rho"], r["h"], r["T0"], r["count"], r["ratio"], r["logC"]]
                for r in rows])
    final = rows[-1]
    print(f"final ratio {_fmt(final['ratio'])} vs bound "
          f"{_fmt(4 * math.sqrt(args.alpha) + args.slack)}; wrote {out_csv}")
    return (0 if final["within"] else 2), RunRecord(
        "words_count.manifest.json",
        dict(alpha=args.alpha, rho=args.rho, j_min=args.j_min, j_max=args.j_max,
             base=args.base, slack=args.slack), [], [out_csv])


def cmd_hessian_check(args) -> tuple[int, RunRecord | None]:
    rng = np.random.default_rng(_seed(args))
    ys, yprimes, ws = [], [], []
    while len(ws) < args.pairs:
        a = rng.standard_normal(args.n + 1)
        a /= np.linalg.norm(a)
        b = rng.standard_normal(args.n + 1)
        b /= np.linalg.norm(b)
        if np.linalg.norm(a - b) < 0.1:
            continue
        ys.append(a)
        yprimes.append(b)
        ws.append(float(rng.uniform(args.w_min, args.w_max)))
    with np.errstate(all="ignore"):     # a step that overflows is reported below
        fds = _log_phase_fd_dets(np.array(ws), np.array(ys), np.array(yprimes), args.fd_step)
    rows = []
    worst = 0.0
    for w, a, b, fd in zip(ws, ys, yprimes, fds.tolist()):
        _, _, sym = log_phase_hessian_factors(w, a, b)
        rel = abs(fd - sym) / abs(sym)
        if not math.isfinite(rel):
            raise ValueError(f"--fd-step {args.fd_step!r} gives the finite-difference "
                             f"determinant {fd!r}, relative error {rel!r}")
        worst = max(worst, rel)
        rows.append([args.n, w, float(np.linalg.norm(a - b)), fd, sym, rel])
    out_csv = os.path.join(args.out, "hessian_check.csv")
    _write_csv(out_csv, ["n", "w", "separation", "fd_det", "symbolic_det", "rel_err"], rows)
    print(f"worst relative error {_fmt(worst)} over {args.pairs} pairs; wrote {out_csv}")
    return (0 if worst <= args.rel_tol else 2), RunRecord(
        "hessian_check.manifest.json",
        dict(n=args.n, pairs=args.pairs, w_min=args.w_min, w_max=args.w_max,
             fd_step=args.fd_step, rel_tol=args.rel_tol), [], [out_csv])


# ---------------------------------------------------------------------------
# parser


def _finite_float(text: str) -> float:
    """The argparse type of every float flag: inf and nan are refused at parse
    time, since no command can run on them or check anything with them."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors print one ``error:`` line, not a
    usage block; its subcommand parsers are of the same class."""

    def error(self, message):
        print(f"error: {message}")
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fuplab", description="hyperbolic-flow and masked-transform laboratory")
    parser.add_argument("--seed", type=int, default=None, help="deterministic seed")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("algebra-verify", help="bracket table, flow and commutation suites")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--inject-sign-flip", action="store_true",
                   help="negative control: corrupt one relation and expect failure")
    p.set_defaults(func=cmd_algebra_verify)

    p = sub.add_parser("flow-trace", help="trace a one-parameter flow from a frame")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--generator", default="X")
    p.add_argument("--frame", default=None, help="file with a stored group element")
    p.add_argument("--t0", type=_finite_float, default=0.0)
    p.add_argument("--t1", type=_finite_float, default=1.0)
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--tol", type=_finite_float, default=DEFAULT_TOL,
                   help="certification tolerance of --frame")
    p.set_defaults(func=cmd_flow_trace)

    p = sub.add_parser("group-decompose", help="KAN or normalizer factorization")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["kan+", "kan-", "normalizer"], default="kan+")
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--tol", type=_finite_float, default=DEFAULT_TOL, help="certification tolerance")
    p.set_defaults(func=cmd_group_decompose)

    p = sub.add_parser("porosity-check", help="ball/line porosity decision for a set file")
    p.add_argument("--set", required=True)
    p.add_argument("--nu", type=_finite_float, required=True)
    p.add_argument("--alpha0", type=_finite_float, required=True)
    p.add_argument("--alpha1", type=_finite_float, required=True)
    p.add_argument("--mode", choices=["ball", "line"], default="ball")
    p.add_argument("--directions", type=int, default=8)
    p.set_defaults(func=cmd_porosity_check)

    p = sub.add_parser("sphere-porosity", help="chart-level porosity on the circle")
    p.add_argument("--set", required=True)
    p.add_argument("--nu", type=_finite_float, required=True)
    p.add_argument("--alpha0", type=_finite_float, required=True)
    p.add_argument("--alpha1", type=_finite_float, required=True)
    p.add_argument("--mode", choices=["ball", "line"], default="ball")
    p.add_argument("--charts", type=int, default=8)
    p.add_argument("--resolution", type=int, default=128)
    p.add_argument("--directions", type=int, default=8)
    p.set_defaults(func=cmd_sphere_porosity)

    p = sub.add_parser("fup-scan", help="masked-transform decay experiment from a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_fup_scan)

    p = sub.add_parser("fio-sphere", help="log-phase kernel decay sweep over energies")
    p.add_argument("--w", type=_finite_float, nargs="+", default=[0.125, 1.0, 8.0])
    p.add_argument("--ladder", type=int, nargs="+", default=[108, 324, 972, 2916])
    p.add_argument("--rho", type=_finite_float, default=None)
    p.set_defaults(func=cmd_fio_sphere)

    p = sub.add_parser("words-count", help="exact uncontrolled-word counting table")
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--rho", type=_finite_float, required=True)
    p.add_argument("--j-min", type=int, required=True)
    p.add_argument("--j-max", type=int, required=True)
    p.add_argument("--base", type=_finite_float, default=2.0)
    p.add_argument("--slack", type=_finite_float, default=0.1)
    p.set_defaults(func=cmd_words_count)

    p = sub.add_parser("hessian-check", help="finite-difference vs symbolic phase Hessian")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--w-min", type=_finite_float, default=0.25)
    p.add_argument("--w-max", type=_finite_float, default=4.0)
    p.add_argument("--fd-step", type=_finite_float, default=1e-5)
    p.add_argument("--rel-tol", type=_finite_float, default=1e-4)
    p.set_defaults(func=cmd_hessian_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process.  Parsing leaves it unchanged, and no command
    mutates a default it hands out, so every call of ``main`` can share it."""
    return build_parser()


def _usage_problem(args) -> str | None:
    """Arguments that parse but would crash a command or let it check nothing."""
    cmd = args.subcommand
    if args.seed is not None and args.seed < 0:
        return "--seed must be non-negative"
    if cmd == "algebra-verify" and not 1 <= args.n_min <= args.n_max:
        return "need 1 <= --n-min <= --n-max"
    if cmd in ("flow-trace", "hessian-check") and args.n < 1:
        return "--n must be at least 1"
    if cmd in ("flow-trace", "group-decompose") and not args.tol > 0:
        return "--tol must be positive"
    if cmd == "flow-trace" and args.steps < 1:
        return "--steps must be at least 1"
    if cmd == "hessian-check" and args.pairs < 1:
        return "--pairs must be at least 1"
    if cmd == "hessian-check" and not args.fd_step > 0:
        return "--fd-step must be positive"
    if cmd == "hessian-check" and not 0 < args.w_min <= args.w_max:
        return "need 0 < --w-min <= --w-max"
    if cmd == "sphere-porosity" and min(args.charts, args.resolution) < 1:
        return "--charts and --resolution must be at least 1"
    if cmd == "fio-sphere" and len(args.ladder) < 4:
        return "a decay fit needs at least 4 --ladder values"
    if cmd == "words-count" and args.j_min > args.j_max:
        return "need --j-min <= --j-max"
    if cmd == "words-count" and not args.base > 1:
        return "--base must exceed 1"
    return None


def main(argv=None) -> int:
    """Parse, refuse unusable input, run the command, then write its manifest."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    problem = _usage_problem(args)
    if problem is not None:
        print(f"error: {problem}")
        return 1
    os.makedirs(args.out, exist_ok=True)
    started = _now()
    try:
        code, record = args.func(args)
    except INPUT_ERRORS as exc:
        print(f"{'config error' if args.subcommand in CONFIG_COMMANDS else 'error'}: {exc}")
        return 1
    if record is not None:
        seed = _seed(args) if record.seed is None else record.seed
        write_manifest(args.out, record.manifest, argv, record.config, seed,
                       record.inputs, record.outputs, started, _now())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
