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
import selberg.geometry
from conftest import schottky_spec, small_h3_spectrum_csv
from selberg.geometry import LengthSpectrum, enumerate_elements

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
    # the one stacked classify of the ball, whose size the tracer reads off ``len``
    assert metrics["geometry.classify.calls"] == 1
    assert metrics["geometry.enumerate_elements.calls"] == 1
    assert metrics["geometry.ball_elements"] == len(enumerate_elements(spec, 4))


def test_tracer_sees_each_class_factor_built_once(tracer, capsys, monkeypatch, tmp_path):
    """``zeta eval``, ``xi`` and ``heat-terms`` at sigma = 1 on one spectrum
    build the characters of sigma and w0 sigma and the elliptic orbital
    polynomials once; a repeat of the three ops builds none of them."""
    monkeypatch.setattr(selberg.geometry, "_last_read", (None, None, None))  # a cold spectrum
    path = tmp_path / "small.csv"
    path.write_text(small_h3_spectrum_csv(seed=31))
    elliptic = LengthSpectrum.read_csv(path).count("elliptic")
    assert elliptic > 0
    common = ["--spectrum", str(path), "--sigma", "1", "--elliptic-vols",
              ",".join(["0.5"] * elliptic)]
    ops = [["zeta", "eval", *common, "--s-grid", "5:6:0.5"],
           ["zeta", "xi", *common, "--s", "4.5,5"],
           ["zeta", "heat-terms", *common, "--t", "0.3,1"]]
    names = ("lie.weyl_character", "orbital.orbital_polynomial")
    passes = []
    for _ in range(2):
        before = [tracer.stats[name][0] for name in names]
        for argv in ops:
            assert selberg.cli.run(argv) == 0
        passes.append([tracer.stats[name][0] - b for name, b in zip(names, before)])
    capsys.readouterr()
    assert passes == [[2, elliptic], [0, 0]]


def test_weyl_group_time_reads_zero_without_a_build(tracer, capsys):
    """``bench/run.py --trace 1`` reads ``stats["lie.weyl_group"]`` after the
    ``spectral-weyl`` warm-up, ``lie weyl --n 3..6 --count``.  That builds
    no W(D_n), and the entry is there from install, at 0."""
    for n in (3, 4, 5, 6):
        assert selberg.cli.run(["lie", "weyl", "--n", str(n), "--count"]) == 0
    capsys.readouterr()
    assert tracer.stats["lie.weyl_group"] == [0, 0.0, 0.0]


def test_tracer_times_the_spectral_weyl_ops(tracer, capsys):
    """The ``spectral-weyl`` ops under the tracer: every rank's character and
    orbital polynomial get a p50 entry, and one ``heat fit`` is one
    ``fit_expansion`` that makes one ``heat_trace`` call for its whole grid."""
    angles = (0.3, 0.9, 1.7, 2.2, 2.9, 0.5)
    for n in (3, 4, 5, 6):
        weight = ",".join(str(n - i) for i in range(n))
        assert selberg.cli.run(["lie", "character", "--weight", weight,
                                "--angles", ",".join(map(str, angles[:n]))]) == 0
        assert selberg.cli.run(["orbital", "poly", "--n", str(n), "--sigma", weight,
                                "--angles", ",".join(map(str, (0.0,) + angles[1:n]))]) == 0
    assert selberg.cli.run(["heat", "weyl", "--model", "pillowcase", "--rmax", "1e4"]) == 0
    assert selberg.cli.run(["heat", "fit", "--model", "pillowcase", "--sides", "5.85037,7.885084"]) == 0
    capsys.readouterr()
    metrics = tracer.metrics(1, 1.0)
    assert metrics["heat.heat_trace.calls"] == metrics["heat.fit_expansion.calls"] == 1
    assert metrics["heat.weyl_counting_check.calls"] == 1
    for name in ("lie.weyl_character", "orbital.orbital_polynomial"):
        assert metrics[f"{name}.calls"] == 4
        for n in (3, 4, 5, 6):
            assert metrics[f"{name}.n{n}.p50_s"] > 0
