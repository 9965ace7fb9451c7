r"""Command-line front door for the numerical laboratory.

Subcommands cover the verification suites (algebra-verify, hessian-check),
flow tracing, group factorization, the porosity deciders on cubes and on
spheres, the decay experiments (fup-scan, fio-sphere), and exact word
counting (words-count).

Conventions shared by every command:

* ``--out`` directory collects all produced files.  A command returns its
  inputs and outputs, and ``main`` writes ``<subcommand>.manifest.json``:
  the command line, the parsed flags as the configuration (fup-scan and
  fio-sphere record their experiment config), the seed, digests of the
  inputs, the output files and the environment (Python, numpy, scipy, BLAS,
  core count), so a run can be reproduced byte-for-byte: ``rerun_manifest``
  parses the recorded command as ``main`` does and runs it into a fresh
  directory.  algebra-verify writes no files and no manifest.
* a flag's own range is its argparse type; only checks that compare flags
  run after parsing;
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
    _check_arc,
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

    inputs: list[str]
    outputs: list[str]
    config: dict | None = None   # None: the parsed flags
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
    """Re-execute the command recorded in a manifest into a fresh directory.

    The command is parsed as ``main`` parses it and only the parsed output
    directory is replaced, so every spelling of ``--out`` re-runs into
    ``out_dir``.  The new manifest records the same command.
    """
    with open(manifest_path) as fh:
        command = json.load(fh)["command"]
    return _run(list(command), out_dir)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_ladder(path: str, core: str, rows: list[dict], fits: dict, label: str) -> None:
    """Write ladder rows, then a ``# fit`` footer line per fit, printing each fit.

    The energy column ``w`` is written exactly when the core is ``log_phase``,
    whose rows carry one.  A fit's key is its energy w, or None on grid cores;
    its stdout line is ``label`` followed by the key, e.g. ``fit w=1: ...`` or
    ``w=1: ...``.
    """
    columns = ["core", "n", "N", "h", "rho", *(["w"] if core == "log_phase" else []),
               "norm", "iters", "converged"]
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


def _json_number(value, name: str):
    """A number field of a JSON file; a boolean, string or null is refused, not cast."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {json.dumps(value)}")
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
        boxes = [(b[0], b[1]) for b in spec["boxes"]]
        x = BoxSet.from_boxes(boxes, m, n)      # refuses corners of the wrong shape first
        # from_boxes clips to the cube and drops what clipping empties; a
        # declaration must not lose a box that way
        for k, (lo, hi) in enumerate(np.asarray(boxes, dtype=np.float64).reshape(-1, 2, n)):
            if np.any(lo > hi) or np.any(lo < 0.0) or np.any(hi > 1.0):
                raise ValueError(f"box {k} {[lo.tolist(), hi.tolist()]} needs lo <= hi on "
                                 "every axis and corners in [0, 1]")
        return x
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
    return 0, RunRecord(inputs, [out_csv])


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
    return (0 if err <= 100 * args.tol else 2), RunRecord([args.input], outputs)


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
    return VERDICT_EXIT[rep.verdict], RunRecord([args.set], [out_path])


def cmd_sphere_porosity(args) -> tuple[int, RunRecord | None]:
    with open(args.set) as fh:
        band = json.load(fh)["band"]
    base = _cantor_set(band, 1)
    lo, hi = _check_arc(band["arc"], "arc")

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
    return VERDICT_EXIT[verdict], RunRecord([args.set], [out_path])


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
    for key in ("chi_gap", "chi_width", "rho"):
        if key in parsed and not (key == "rho" and parsed[key] is None):   # null: no thickening
            _json_number(parsed[key], key)
    for key in ("w_list", "arc_minus", "arc_plus"):
        if key in parsed:
            parsed[key] = tuple(float(_json_number(v, key)) for v in parsed[key])
    if not isinstance(parsed.get("lower_bound_mode", False), bool):
        raise ValueError("lower_bound_mode must be true or false, got "
                         f"{json.dumps(parsed['lower_bound_mode'])}")
    for key in ("set_minus", "set_plus"):
        if parsed.get(key) is not None:
            parsed[key] = set_from_spec(parsed[key])
    return FupConfig(**parsed), raw


def cmd_fup_scan(args) -> tuple[int, RunRecord | None]:
    cfg, raw_cfg = _config_from_json(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    rows, fits, ok = fup_experiment(cfg)
    out_csv = os.path.join(args.out, "fup_scan.csv")
    _write_ladder(out_csv, cfg.core, rows, fits, "fit")
    print(f"sanity {'pass' if ok else 'FAIL'}; wrote {out_csv}")
    return (0 if ok else 2), RunRecord([args.config], [out_csv], raw_cfg, cfg.seed)


def cmd_fio_sphere(args) -> tuple[int, RunRecord | None]:
    cfg = FupConfig(core="log_phase", n=1,
                    ladder=tuple(args.ladder), w_list=tuple(args.w),
                    rho=args.rho, seed=_seed(args))
    rows, fits, ok = fup_experiment(cfg)
    out_csv = os.path.join(args.out, "fio_sphere.csv")
    _write_ladder(out_csv, cfg.core, rows, fits, "")
    passed = ok and bool(fits) and all(fit.beta > 0 for fit in fits.values())
    print(f"{'pass' if passed else 'FAIL'}; wrote {out_csv}")
    # the config of a fup-scan that writes this CSV
    return (0 if passed else 2), RunRecord([], [out_csv], dataclasses.asdict(cfg))


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
    return (0 if final["within"] else 2), RunRecord([], [out_csv])


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
    return (0 if worst <= args.rel_tol else 2), RunRecord([], [out_csv])


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


def _bounded(cast, low, strict: bool = False):
    """The argparse type of a flag with a range of its own: ``cast`` of the text,
    refused below ``low``, or at ``low`` too when ``strict``."""
    def parse(text: str):
        value = cast(text)
        if value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(
                f"must {'exceed' if strict else 'be at least'} {low}, got {text!r}")
        return value
    parse.__name__ = cast.__name__      # named in "invalid int value: 'many'"
    return parse


_COUNT = _bounded(int, 1)
_POSITIVE = _bounded(_finite_float, 0, strict=True)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors print one ``error:`` line, not a
    usage block; its subcommand parsers are of the same class."""

    def error(self, message):
        print(f"error: {message}")
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fuplab", description="hyperbolic-flow and masked-transform laboratory")
    parser.add_argument("--seed", type=_bounded(int, 0), default=None,
                        help="deterministic seed")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("algebra-verify", help="bracket table, flow and commutation suites")
    p.add_argument("--n-min", type=_COUNT, default=2)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--inject-sign-flip", action="store_true",
                   help="negative control: corrupt one relation and expect failure")
    p.set_defaults(func=cmd_algebra_verify)

    p = sub.add_parser("flow-trace", help="trace a one-parameter flow from a frame")
    p.add_argument("--n", type=_COUNT, default=2)
    p.add_argument("--generator", default="X")
    p.add_argument("--frame", default=None, help="file with a stored group element")
    p.add_argument("--t0", type=_finite_float, default=0.0)
    p.add_argument("--t1", type=_finite_float, default=1.0)
    p.add_argument("--steps", type=_COUNT, default=11)
    p.add_argument("--tol", type=_POSITIVE, default=DEFAULT_TOL,
                   help="certification tolerance of --frame")
    p.set_defaults(func=cmd_flow_trace)

    p = sub.add_parser("group-decompose", help="KAN or normalizer factorization")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["kan+", "kan-", "normalizer"], default="kan+")
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--tol", type=_POSITIVE, default=DEFAULT_TOL, help="certification tolerance")
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
    p.add_argument("--charts", type=_COUNT, default=8)
    p.add_argument("--resolution", type=_COUNT, default=128)
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
    p.add_argument("--base", type=_bounded(_finite_float, 1, strict=True), default=2.0)
    p.add_argument("--slack", type=_finite_float, default=0.1)
    p.set_defaults(func=cmd_words_count)

    p = sub.add_parser("hessian-check", help="finite-difference vs symbolic phase Hessian")
    p.add_argument("--n", type=_COUNT, default=1)
    p.add_argument("--pairs", type=_COUNT, default=100)
    p.add_argument("--w-min", type=_POSITIVE, default=0.25)
    p.add_argument("--w-max", type=_finite_float, default=4.0)
    p.add_argument("--fd-step", type=_POSITIVE, default=1e-5)
    p.add_argument("--rel-tol", type=_finite_float, default=1e-4)
    p.set_defaults(func=cmd_hessian_check)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process.  Parsing leaves it unchanged, and no command
    mutates a default it hands out, so every call of ``main`` can share it."""
    return build_parser()


def _usage_problem(args) -> str | None:
    """Flags that are each in range but cannot be run together."""
    cmd = args.subcommand
    if cmd == "algebra-verify" and args.n_min > args.n_max:
        return "need 1 <= --n-min <= --n-max"
    if cmd == "hessian-check" and args.w_min > args.w_max:
        return "need 0 < --w-min <= --w-max"
    if cmd == "words-count" and args.j_min > args.j_max:
        return "need --j-min <= --j-max"
    if cmd == "fio-sphere" and len(args.ladder) < 4:
        return "a decay fit needs at least 4 --ladder values"
    return None


def main(argv=None) -> int:
    """Parse, refuse unusable input, run the command, then write its manifest."""
    return _run(list(sys.argv[1:]) if argv is None else list(argv))


def _run(argv: list[str], out: str | None = None) -> int:
    """``main`` on argv, with the parsed output directory replaced by ``out``
    when given; the manifest records argv as the command."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    problem = _usage_problem(args)
    if problem is not None:
        print(f"error: {problem}")
        return 1
    if out is not None:
        args.out = out
    os.makedirs(args.out, exist_ok=True)
    started = _now()
    try:
        code, record = args.func(args)
    except INPUT_ERRORS as exc:
        # a KeyError is a field that a set file or config lacks; its str is a bare repr
        message = f"missing field {exc.args[0]!r}" if isinstance(exc, KeyError) else exc
        print(f"{'config error' if args.subcommand in CONFIG_COMMANDS else 'error'}: {message}")
        return 1
    if record is not None:
        flags = {k: v for k, v in vars(args).items()
                 if k not in ("func", "out", "seed", "subcommand")}
        write_manifest(args.out, f"{args.subcommand.replace('-', '_')}.manifest.json", argv,
                       flags if record.config is None else record.config,
                       _seed(args) if record.seed is None else record.seed,
                       record.inputs, record.outputs, started, _now())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
