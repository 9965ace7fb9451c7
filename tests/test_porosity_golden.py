"""Golden outputs of the porosity deciders.

Pins, bit for bit, what ``ball_porosity_check``, ``line_porosity_check`` and
``max_certified_nu`` return on the Cantor sets of acceptance criterion 9
(m = 729 in 1-D, m = 64 and m = 256 in 2-D) and on a small 3-D set: the
overall and per-scale verdicts, the scales and margins as ``float.hex``, the
witness, and the bisected nu.  Certified, inconclusive and refuting nu are
all present, so witnesses are pinned too.

The expected values live in ``porosity_golden.json`` next to this file.  They
were written by the decider code that predates the cached-field deciders, so
any change to the decider arithmetic shows up here.  To regenerate after an
intended change of output, run ``PYTHONPATH=src python tests/test_porosity_golden.py``
and say in the change why the output moved.
"""

import json
import pathlib

import pytest

from fuplab.porosity import (
    BallWitness,
    CantorSpec,
    cantor_generate,
    ball_porosity_check,
    line_porosity_check,
    max_certified_nu,
)

GOLDEN = pathlib.Path(__file__).with_name("porosity_golden.json")

# name -> (base, kept digits, depth, n)
SETS = {
    "x1": (3, (0, 2), 6, 1),      # m = 729
    "x2": (4, (0, 3), 3, 2),      # m = 64
    "x2f": (4, (0, 3), 4, 2),     # m = 256
    "x3": (3, (0, 2), 3, 3),      # m = 27
}

# (set, kind, alpha0, alpha1, directions, nu values of single reports,
#  bisection iterations or None)
CASES = [
    ("x1", "ball", 1 / 3, 1.0, 8, (0.12, 0.2, 0.9), 20),
    ("x1", "line", 1 / 3, 1.0, 8, (0.12, 0.2, 0.9), 20),
    ("x2", "ball", 0.8, 1.0, 6, (0.2, 0.3, 0.5, 0.9), 20),
    ("x2", "line", 0.8, 1.0, 6, (0.2, 0.3, 0.5, 0.9), 20),
    ("x2f", "ball", 1.0, 1.0, 6, (0.3, 0.6), 20),
    ("x2f", "line", 1.0, 1.0, 6, (0.2, 0.3), 6),
    ("x3", "ball", 0.5, 1.0, 9, (0.3, 0.6), None),
    ("x3", "line", 0.5, 1.0, 9, (0.3,), None),
]


def _hex(values):
    return [float(v).hex() for v in values]


def _report_record(rep) -> dict:
    w = rep.witness
    if w is None:
        witness = None
    elif isinstance(w, BallWitness):
        witness = {"center": _hex(w.center), "scale": float(w.scale).hex()}
    else:
        witness = {"midpoint": _hex(w.midpoint), "direction": _hex(w.direction),
                   "scale": float(w.scale).hex()}
    return {
        "kind": rep.kind,
        "verdict": rep.verdict.value,
        "per_scale": [v.value for v in rep.per_scale],
        "scales": _hex(rep.scales),
        "margins": _hex(rep.margins),
        "witness": witness,
        "directions": rep.directions,
    }


def case_id(case) -> str:
    name, kind = case[0], case[1]
    return f"{name}-{kind}"


def case_outputs(case) -> dict:
    name, kind, a0, a1, dirs, nus, iters = case
    base, kept, depth, n = SETS[name]
    x = cantor_generate(CantorSpec.uniform(base, kept, depth, n), n)
    out = {}
    for nu in nus:
        if kind == "ball":
            rep = ball_porosity_check(x, nu, a0, a1)
        else:
            rep = line_porosity_check(x, nu, a0, a1, dirs)
        out[f"nu={nu!r}"] = _report_record(rep)
    if iters is not None:
        out["max_certified_nu"] = float(max_certified_nu(x, a0, a1, kind, dirs, iters)).hex()
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_decider_outputs_match_golden(case, golden):
    assert case_outputs(case) == golden[case_id(case)]


def test_golden_covers_every_verdict_and_a_witness_of_each_kind(golden):
    verdicts = {rec["verdict"] for outs in golden.values() for key, rec in outs.items()
                if key.startswith("nu=")}
    assert verdicts == {"certified-porous", "inconclusive", "counterexample-found"}
    witnessed = {rec["kind"] for outs in golden.values() for key, rec in outs.items()
                 if key.startswith("nu=") and rec["witness"] is not None}
    assert witnessed == {"ball", "line"}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case_id(c): case_outputs(c) for c in CASES}, indent=1) + "\n")
