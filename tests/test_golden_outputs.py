"""Byte-identity gate on the verify report and the CLI output.

Each hash pins the exact bytes a command produces.  A change that alters
them on purpose updates the hash here and states why in CHANGES.md.
"""

import hashlib

import pytest

from spdmeans.cli import main

VERIFY_SHA256 = "3efe09b774485207327a09bc6da52b1c8c2f98da9781cfb90676bd0a29e0c650"

CLI_SHA256 = {
    "bounds": "07c928a953dac0973459478d0ec09785485fb2df72c21665bac4d5867bc5d778",
    "mean-wasserstein": "eda28986fd4d2499d2d21b8f93e2579a0dba2fff9197ec125cd5302f7f6bf05d",
    "mean-karcher": "736e33747c837dce186816fc82f6d118c8f57313a46f01f5ceacb5817a51b3dd",
    "mean-arithmetic": "74ba9884fe4c9aa827539a0151aeae97547b6523ce95cff7a64d2e12c77d7b7a",
    "mean-harmonic": "ffa5844fdf202d4bfe6292c590767adfb9d309652ffc119cbbcdbb1635c6165f",
    "lie-trotter": "ac2dc81b2af02234cb8b2d666ead460cf01286f6b522835dd6c98cc271ab6c49",
    "distance-wasserstein": "4ecdd70930069d5927cf5935b37e0fc0d8af9378750e47f31740d4f8760aad40",
    "distance-riemannian": "0aaec0745f9bfd1432eb43a533571e7ef7ba41a4cbf8c7d17f4862499af1cbfc",
    "geodesic": "0cbd2b851bdda851d7fa31887ebfae292b81dcdd240f8dfda49ef4aa3a412278",
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


def test_verify_report_bytes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "all", "--seed", "42", "--count", "10", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert _sha256(out.read_bytes()) == VERIFY_SHA256


@pytest.mark.parametrize("name", sorted(CLI_ARGV))
def test_cli_output_bytes(name, example_file, capsys):
    code = main([*CLI_ARGV[name], "--input", str(example_file)])
    stdout = capsys.readouterr().out
    assert _sha256(f"{stdout}exit {code}\n".encode("utf-8")) == CLI_SHA256[name]
