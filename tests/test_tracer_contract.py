"""The benchmark tracer (``bench/tracer.py``) wraps the package's functions
from outside and reads class counts off their results, so a change to the
package can break ``bench/run.py --trace 1`` without failing any other test.
This runs the tracer over a CLI pipeline and checks its counts against the
spectrum's own."""

import json
import sys
from pathlib import Path

import pytest

import selberg.cli
from conftest import schottky_spec
from selberg.geometry import LengthSpectrum

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    from tracer import Tracer

    installed = Tracer()
    installed.install()
    try:
        yield installed
    finally:
        installed.uninstall()


def test_tracer_counts_the_spectrum_classes(tracer, capsys, tmp_path):
    spec = schottky_spec()
    group, path = tmp_path / "schottky.json", tmp_path / "schottky.csv"
    group.write_text(json.dumps({"model": spec.model, "generators": [
        [[x.real for x in row] for row in g.tolist()] for g in spec.generators
    ]}))
    assert selberg.cli.run(["spectrum", "enumerate", "--group", str(group),
                            "--max-word-len", "4", "--cutoff", "9", "--out", str(path)]) == 0
    assert selberg.cli.run(["zeta", "eval", "--spectrum", str(path), "--sigma", "1",
                            "--s-grid", "3:3:1", "--allow-ambiguous"]) == 0
    capsys.readouterr()
    spectrum = LengthSpectrum.read_csv(path)
    hyperbolic, elliptic = spectrum.count("hyperbolic"), spectrum.count("elliptic")
    assert hyperbolic > 0
    metrics = tracer.metrics(1, 1.0)
    assert metrics["geometry.classes"] == hyperbolic + elliptic
    assert metrics["geometry.elliptic_classes"] == elliptic
    assert metrics["geometry.ambiguous_classes"] == int(spectrum.columns.ambiguous.sum())
    assert metrics["zeta.class_terms"] == hyperbolic
    assert metrics["geometry.conjugacy_reduce.calls"] == metrics["zeta.log_zeta_truncated.calls"] == 1
