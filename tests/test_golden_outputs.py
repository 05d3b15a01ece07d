"""Byte-identity gate on the verify report, the CLI output and the limit
experiments.

Each hash pins the exact bytes of one output.  A change that alters
them on purpose updates the hash here and states why in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from spdmeans import (
    CurveSpec,
    SymMatrix,
    WeightVector,
    apply_spectral,
    convergence_trace,
    derivative_at_identity_check,
    operator_norm,
)
from spdmeans.cli import main

# verify --suite all --count 10, by seed
VERIFY_SHA256 = {
    42: "a5c21bf4cef2a5cd5eefce9508c28530ba844631ba05d9ce640fc6b131d49c00",
    7: "d8b2c028c15265965080940434e73997883cab7e823383d43dfcf18f3fea39af",
    1: "0b2dc906e9ad2683738c32ad1f49920b8f94727944a2cd51ba68a369dcbe73cf",
}

CLI_SHA256 = {
    "bounds": "e9bdbae1f70f8e872dcaa96a7d282367a80ff787d59fa68b39ac6cd4c2abda70",
    "mean-wasserstein": "5fbb204b3f8a119828a8443ee24e77fff0c86a9da95b260d530db8836220c150",
    "mean-karcher": "84390c63d64c2f553744c1e101faa4c9b5696bf6ac051d26903c0e1b705b0a19",
    "mean-arithmetic": "74ba9884fe4c9aa827539a0151aeae97547b6523ce95cff7a64d2e12c77d7b7a",
    "mean-harmonic": "ffa5844fdf202d4bfe6292c590767adfb9d309652ffc119cbbcdbb1635c6165f",
    "lie-trotter": "89c3dc35c8c236054696ca571dde37a0401cb630553519ee720fb55317420171",
    "distance-wasserstein": "e5fb7af6d283966b9e7c649d7f373a988cdd81fdea5014a7ef89aa5051c552d4",
    "distance-riemannian": "0aaec0745f9bfd1432eb43a533571e7ef7ba41a4cbf8c7d17f4862499af1cbfc",
    "geodesic": "7cb2a8655e120c785d3de2f0dd64c8fbe35703e1d4de78db5429ed783dff66a0",
}

CLI_ARGV = {
    "bounds": ["bounds"],
    "mean-wasserstein": ["mean", "--method", "wasserstein"],
    "mean-karcher": ["mean", "--method", "karcher"],
    "mean-arithmetic": ["mean", "--method", "arithmetic"],
    "mean-harmonic": ["mean", "--method", "harmonic"],
    "lie-trotter": ["lie-trotter"],
    "distance-wasserstein": ["distance", "--metric", "wasserstein"],
    "distance-riemannian": ["distance", "--metric", "riemannian"],
    "geodesic": ["geodesic", "--t", "0.3"],
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _verify_sha256(seed, tmp_path, capsys) -> str:
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "all", "--seed", str(seed), "--count", "10", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    return _sha256(out.read_bytes())


def test_verify_report_bytes(tmp_path, capsys):
    assert _verify_sha256(42, tmp_path, capsys) == VERIFY_SHA256[42]


@pytest.mark.parametrize("seed", [7, 1])
def test_verify_report_bytes_at_more_seeds(seed, tmp_path, capsys):
    assert _verify_sha256(seed, tmp_path, capsys) == VERIFY_SHA256[seed]


@pytest.mark.parametrize("name", sorted(CLI_ARGV))
def test_cli_output_bytes(name, example_file, capsys):
    code = main([*CLI_ARGV[name], "--input", str(example_file)])
    stdout = capsys.readouterr().out
    assert _sha256(f"{stdout}exit {code}\n".encode("utf-8")) == CLI_SHA256[name]


# Limit instances: (seed, dim, curve kinds), one curve per kind listed.
LIMIT_INSTANCES = {
    "d3": (301, 3, ("power", "affine", "exp_line")),
    "d5": (502, 5, ("exp_line", "power")),
    "d6": (603, 6, ("affine", "exp_line", "power", "affine")),
}

# convergence_trace at +s and -s (s_values, errors, failed_s), and
# derivative_at_identity_check (errors_pos, errors_neg), on the default schedules
LIMIT_SHA256 = {
    "d3": "0710cb0ccfd1cc9789fa5a845c046e6e50c14e7220d81bfe863dcda7d567bac7",
    "d5": "7eeffb4f460189c6dc4316c7048f7a920422d7a74632fbf4b5894f9501cf1fe4",
    "d6": "3ad15337658d8719b4a0198c6ab50afc1d24794e40acd4d049744503b5682134",
}


def _limit_instance(seed, dim, kinds):
    """Weights and curves drawn with the package's own eigensolver only, so
    the inputs do not depend on LAPACK."""
    rng = np.random.default_rng(seed)
    curves = []
    for kind in kinds:
        g = rng.normal(size=(dim, dim))
        sym = SymMatrix((g + g.T) / 2.0)
        direction = SymMatrix(sym.entries * (float(rng.uniform(0.25, 0.6)) / operator_norm(sym)))
        if kind == "power":
            curves.append(CurveSpec.power(apply_spectral(direction, "exp_of_sym")))
        elif kind == "affine":
            curves.append(CurveSpec.affine(direction))
        else:
            curves.append(CurveSpec.exp_line(direction))
    return WeightVector(rng.uniform(0.2, 1.0, size=len(kinds))), tuple(curves)


@pytest.mark.parametrize("name", sorted(LIMIT_INSTANCES))
def test_limit_output_bits(name):
    w, curves = _limit_instance(*LIMIT_INSTANCES[name])
    traces = [convergence_trace(w, curves, negate=negate) for negate in (False, True)]
    deriv = derivative_at_identity_check(w, tuple(c.derivative_at_zero for c in curves))
    assert not any(t.failed_s for t in traces)
    outputs = (
        *((t.s_values, t.errors, t.failed_s) for t in traces),
        (deriv.errors_pos, deriv.errors_neg),
    )
    assert _sha256(repr(outputs).encode("utf-8")) == LIMIT_SHA256[name]
