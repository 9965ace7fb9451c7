"""Span tracing of fuplab's six layers, installed from outside the program.

The tracer wraps every public function of each layer module, and the
``apply``/``adjoint`` methods of the operator cores, in every fuplab namespace
that binds them.  Each wrapped call records one span (name, start, end,
parent).  Calls made inside the program through module globals (for example
``max_certified_nu`` calling ``ball_porosity_check``) are therefore traced as
child spans.  Spans stay in memory; :func:`layer_metrics` reduces them once the
traced rounds are over.
"""

from __future__ import annotations

import math
import sys
import time
import types

LAYERS = ("lab_cli", "fup_numerics", "porosity", "word_combinatorics",
          "lorentz_core", "stable_unstable")

# lab_cli has no __all__.  Its cmd_* handlers and build_parser are reached only
# through main, so their time counts as main's own (argparse, CSV, glue).
LAB_CLI_PUBLIC = ("main", "rerun_manifest", "write_manifest", "set_from_spec",
                  "load_set_spec")

CORE_CLASSES = ("FourierCore", "KernelCore", "SubmatrixKernelCore")


def _core_flops(core) -> float:
    """Computed (not measured) flop count of one core apply or adjoint."""
    kind = type(core).__name__
    if kind == "FourierCore":
        size = core.N ** core.n
        return 5.0 * size * math.log2(size)
    if kind == "KernelCore":
        return 8.0 * core.matrix.shape[0] * core.matrix.shape[1]
    return 8.0 * core.block.shape[0] * core.block.shape[1]


class Tracer:
    """Spans of wrapped calls, kept in parallel lists until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.flops = 0.0
        self.norm_iters = 0
        self.count_bits_max = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        names, start, end, parent, stack = (self.names, self.start, self.end,
                                             self.parent, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            self._observe(name, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _observe(self, name: str, args, out) -> None:
        if name.endswith(".apply") or name.endswith(".adjoint"):
            self.flops += _core_flops(args[0])
        elif name == "fup_numerics.masked_norm":
            self.norm_iters += int(out.iters)
        elif name == "word_combinatorics.count_uncontrolled":
            self.count_bits_max = max(self.count_bits_max, int(out).bit_length())

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layers in every fuplab namespace."""
        modules = {name: sys.modules[f"fuplab.{name}"] for name in LAYERS}
        namespaces = [m for key, m in sys.modules.items()
                      if key == "fuplab" or key.startswith("fuplab.")]
        for layer, mod in modules.items():
            public = LAB_CLI_PUBLIC if layer == "lab_cli" else mod.__all__
            for attr in public:
                fn = getattr(mod, attr)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patched.append((ns, key, fn))
                            setattr(ns, key, wrapped)
        numerics = modules["fup_numerics"]
        for cls_name in CORE_CLASSES:
            cls = getattr(numerics, cls_name)
            for meth in ("apply", "adjoint"):
                fn = cls.__dict__[meth]
                self._patched.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"fup_numerics.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# reduction


def _durations(tr: Tracer) -> list[float]:
    return [e - s for s, e in zip(tr.start, tr.end)]


def _select(tr: Tracer, match) -> list[int]:
    return [i for i, name in enumerate(tr.names) if match(name)]


def _outer_time(tr: Tracer, idx: list[int], dur: list[float]) -> float:
    """Time of the selected spans, counting nested selected spans once."""
    chosen = set(idx)
    total = 0.0
    for i in idx:
        p = tr.parent[i]
        while p >= 0 and p not in chosen:
            p = tr.parent[p]
        if p < 0:
            total += dur[i]
    return total


def _self_time(idx: list[int], dur: list[float], child_time: list[float]) -> float:
    return sum(dur[i] - child_time[i] for i in idx)


def layer_metrics(tr: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per traced round, as name -> (value, unit)."""
    dur = _durations(tr)
    child_time = [0.0] * len(dur)
    for i, p in enumerate(tr.parent):
        if p >= 0:
            child_time[p] += dur[i]

    def named(*full):
        return _select(tr, lambda s: s in full)

    def calls(idx):
        return (len(idx) / rounds, "count")

    def secs(idx):
        return (_outer_time(tr, idx, dur) / rounds, "s")

    def self_s(idx):
        return (_self_time(idx, dur, child_time) / rounds, "s")

    main = named("lab_cli.main")
    masked = named("fup_numerics.masked_norm")
    cores = _select(tr, lambda s: s.startswith("fup_numerics.") and
                    (s.endswith(".apply") or s.endswith(".adjoint")))
    dense = named("fup_numerics.dense_norm")
    ball = named("porosity.ball_porosity_check")
    line = named("porosity.line_porosity_check")
    bisect = named("porosity.max_certified_nu")
    bisect_set = set(bisect)
    bisect_checks = sum(1 for i in ball + line if tr.parent[i] in bisect_set)
    lemmas = named("porosity.verify_affine_lemma", "porosity.verify_neighborhood_lemma",
                   "porosity.verify_bilipschitz_lemma")
    counts = named("word_combinatorics.count_uncontrolled")
    flows = named("lorentz_core.exp_flow")
    su = _select(tr, lambda s: s.startswith("stable_unstable."))
    return {
        "lab_cli.main.calls": calls(main),
        "lab_cli.main.self_s": self_s(main),
        "lab_cli.write_manifest.s": secs(named("lab_cli.write_manifest")),
        "fup_numerics.fup_experiment.calls": calls(named("fup_numerics.fup_experiment")),
        "fup_numerics.masked_norm.calls": calls(masked),
        "fup_numerics.masked_norm.self_s": self_s(masked),
        "fup_numerics.norm_iters": (tr.norm_iters / rounds, "count"),
        "fup_numerics.core_apply.calls": calls(cores),
        "fup_numerics.core_apply.s": secs(cores),
        "fup_numerics.core_apply.flops": (tr.flops / rounds, "flop"),
        "fup_numerics.dense_norm.calls": calls(dense),
        "fup_numerics.dense_norm.s": secs(dense),
        "fup_numerics.log_phase_masked_operator.s":
            secs(named("fup_numerics.log_phase_masked_operator")),
        "fup_numerics.thicken_mask.s": secs(named("fup_numerics.thicken_mask")),
        "fup_numerics.sphere_porosity_check.s":
            secs(named("fup_numerics.sphere_porosity_check")),
        "porosity.ball_porosity_check.calls": calls(ball),
        "porosity.ball_porosity_check.s": secs(ball),
        "porosity.line_porosity_check.calls": calls(line),
        "porosity.line_porosity_check.s": secs(line),
        "porosity.max_certified_nu.calls": calls(bisect),
        "porosity.max_certified_nu.self_s": self_s(bisect),
        "porosity.checks_per_bisection": (bisect_checks / len(bisect) if bisect else 0.0,
                                          "count"),
        "porosity.verify_lemma.self_s": self_s(lemmas),
        "porosity.raster.s": secs(named("porosity.affine_image", "porosity.neighborhood",
                                        "porosity.bilipschitz_image")),
        "porosity.cantor_generate.s": secs(named("porosity.cantor_generate")),
        "word_combinatorics.count_uncontrolled.calls": calls(counts),
        "word_combinatorics.count_uncontrolled.s": secs(counts),
        "word_combinatorics.bound_check.s": secs(named("word_combinatorics.bound_check")),
        "word_combinatorics.count_bits_max": (float(tr.count_bits_max), "bit"),
        "lorentz_core.exp_flow.calls": calls(flows),
        "lorentz_core.exp_flow.s": secs(flows),
        "lorentz_core.decompose.s": secs(named("lorentz_core.kan_decompose",
                                               "lorentz_core.normalizer_decompose")),
        "lorentz_core.bracket.s": secs(named("lorentz_core.bracket")),
        "stable_unstable.calls": calls(su),
        "stable_unstable.s": secs(su),
    }
