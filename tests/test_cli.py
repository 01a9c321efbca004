import ast
import cmath
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np
import pytest

from conftest import (
    axis_fixer_oracle,
    coxeter_534_gram_normals,
    coxeter_534_spec,
    cyclic_h3_spec,
    klein_tetrahedron_volume,
    orthoscheme_volume,
    reduced_words,
    schottky_spec,
    small_h3_spectrum_csv,
    triangle_237_spec,
    weyl_dn,
)
import selberg.cli
import selberg.heat
import selberg.lie
from selberg.cli import _COMMANDS, MAX_GRID_POINTS, _leaf_parser, _parse_grid, _parser, run
from selberg.errors import NumericalGuardError, ValidationError
from selberg.geometry import (
    ConjClassRecord,
    GroupSpec,
    LengthSpectrum,
    build_length_spectrum,
    enumerate_elements,
)
from selberg.lie import EllipticAngles, WeightVector
from selberg.orbital import orbital_polynomial
from selberg.zeta import ZetaTermContext, log_zeta_truncated


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: the package's modules from the bottom layer up
LAYERS = ("errors", "lie", "orbital", "geometry", "zeta", "heat", "cli")


def _package_imports(tree) -> set:
    """The package modules an AST imports anywhere, by short name, and
    ``selberg`` for the package itself."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("selberg." * node.level + (node.module or "")).rstrip(".")
            names = [f"{module}.{alias.name}" if module == "selberg" else module
                     for alias in node.names]
        else:
            continue
        found |= {name.partition(".")[2] or name for name in names
                  if name.partition(".")[0] == "selberg"}
    return found


def test_each_module_imports_only_earlier_layers():
    """Every module of the package imports only modules before it in LAYERS,
    so no layer reaches up: errors, lie, orbital, geometry, zeta, heat, cli."""
    package = Path(selberg.cli.__file__).parent
    assert sorted(path.stem for path in package.glob("*.py")) == sorted(LAYERS + ("__init__",))
    for rank, name in enumerate(LAYERS):
        imported = _package_imports(ast.parse((package / f"{name}.py").read_text()))
        assert imported <= set(LAYERS[:rank]), (name, imported - set(LAYERS[:rank]))


GROUP_JSON = {
    "model": "H3-complex-2x2",
    "generators": [
        [
            [[math.e, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [1.0 / math.e, 0.0]],
        ]
    ],
    "name": "cyclic-length-2",
}


@pytest.fixture
def group_file(tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(GROUP_JSON))
    return str(path)


@pytest.fixture
def schottky_file(tmp_path):
    """The free Schottky group of ``schottky_spec``: g and g^-1 share their
    invariants but are not conjugate, so its spectra carry ambiguity flags."""
    spec = schottky_spec()
    path = tmp_path / "schottky.json"
    path.write_text(json.dumps({"model": spec.model,
                                "generators": [g.real.tolist() for g in spec.generators]}))
    return str(path)


def test_delta_m_output(capsys):
    code, out, _ = invoke(capsys, "lie", "delta-m", "--n", "3")
    assert code == 0
    assert out == "2,1,0\n"


def test_weyl_count_output(capsys):
    code, out, _ = invoke(capsys, "lie", "weyl", "--n", "3", "--count")
    assert code == 0
    assert out.strip() == "24"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weyl_listing_matches_itertools(capsys, n):
    code, out, _ = invoke(capsys, "lie", "weyl", "--n", str(n))
    assert code == 0
    want = "".join(
        f"{'.'.join(map(str, perm))};{'.'.join('+' if x == 1 else '-' for x in signs)};{det}\n"
        for perm, signs, det in weyl_dn(n)
    )
    assert out == want


def test_weyl_rejects_rank_7(capsys):
    code, _, err = invoke(capsys, "lie", "weyl", "--n", "7")
    assert code == 2
    assert "between 1 and 6" in err


def test_weyl_count_builds_no_group(capsys, monkeypatch):
    """``--count`` prints |W(D_n)| without building W(D_n), and refuses the
    ranks the listing refuses."""
    monkeypatch.setattr(selberg.cli, "weyl_group", None)  # a build would fail
    for n in range(1, 7):
        assert invoke(capsys, "lie", "weyl", "--n", str(n), "--count") == (
            0, f"{len(weyl_dn(n))}\n", "")
    for n in (0, 7):
        code, out, err = invoke(capsys, "lie", "weyl", "--n", str(n), "--count")
        assert (code, out, err) == (2, "", f"error: rank must be between 1 and 6, got {n}\n")


def test_character_rejects_non_dominant_weight(capsys):
    weight, angles = "3,2,1,-1,0", "0.1,0.5,1,2,3"
    code, out, err = invoke(capsys, "lie", "character", "--weight", weight, "--angles", angles)
    assert code == 2 and out == ""
    assert "not dominant" in err
    # the plain torus character takes any weight
    code, out, _ = invoke(
        capsys, "lie", "character", "--weight", weight, "--angles", angles, "--xi"
    )
    assert code == 0
    re, im = (float(x) for x in out.strip().split(","))
    want = cmath.exp(1j * (0.3 + 1.0 + 1.0 - 2.0))
    assert complex(re, im) == pytest.approx(want, abs=1e-14)


# a weight coordinate with |2k| >= 2^53, past which mu = sigma + delta is not
# exact in floats, on each path that parses a weight
WEIGHT_PAST_FLOATS = {
    "character": ("lie", "character", "--weight", "1e400", "--angles", "1"),
    "character-xi": ("lie", "character", "--weight", "1e400", "--angles", "1", "--xi"),
    "character-1e20": ("lie", "character", "--weight", "1e20", "--angles", "1"),
    "poly": ("orbital", "poly", "--n", "1", "--sigma", "1e400", "--angles", "1"),
    "poly-zero-angle": ("orbital", "poly", "--n", "1", "--sigma", "1e300", "--angles", "0"),
    "plancherel": ("orbital", "plancherel", "--sigma", "1e400"),
    "plancherel-rank-6": ("orbital", "plancherel", "--sigma", "6e15,5e15,4e15,3e15,2e15,1e15"),
    "zeta-eval": ("zeta", "eval", "--s-grid", "3:4:1"),
    "zeta-heat-terms": ("zeta", "heat-terms", "--t", "1"),
}


@pytest.mark.parametrize("argv", WEIGHT_PAST_FLOATS.values(), ids=WEIGHT_PAST_FLOATS.keys())
def test_a_weight_past_the_exact_float_range_exits_2(capsys, tmp_path, argv):
    if argv[0] == "zeta":
        spec = tmp_path / "small.csv"
        spec.write_text(small_h3_spectrum_csv())
        argv += ("--spectrum", str(spec), "--sigma", "1e400", "--elliptic-vols", "0.5,0.75")
    assert invoke(capsys, *argv) == (
        2, "", "error: weight coordinates need |2k| < 2^53, the exact float range\n")


def test_a_weight_exponent_is_judged_without_building_it(capsys):
    """Fraction("1e3000000") builds 10**3000000, which takes seconds."""
    start = time.perf_counter()
    for weight in ("1e3000000", "-1e3000000", "1e-3000000"):
        code, out, err = invoke(capsys, "lie", "character", f"--weight={weight}", "--angles", "1")
        assert (code, out) == (2, "") and err.count("\n") == 1
    # 0 whatever its exponent
    assert invoke(capsys, "lie", "character", "--weight", "0e3000000", "--angles", "1") == (
        0, "1,0\n", "")
    # 2k = 2^53 - 1 is the largest coordinate taken
    assert invoke(capsys, "lie", "character", "--weight", "4503599627370495.5", "--angles",
                  "0", "--xi")[:2] == (0, "1,0\n")
    assert time.perf_counter() - start < 0.5


def test_plancherel_past_the_float_range_is_a_numerical_guard(capsys):
    """Each |2k| is below 2^53, but dim(sigma) is about 10^470."""
    sigma = "4e15,3e15,2e15,1e15,5e14,1e14"
    code, out, err = invoke(capsys, "orbital", "plancherel", "--sigma", sigma)
    assert (code, out) == (3, "")
    assert err == ("numerical guard: a Plancherel coefficient of weight 4000000000000000,"
                   "3000000000000000,2000000000000000,1000000000000000,500000000000000,"
                   "100000000000000 is past the float range\n")


@pytest.mark.parametrize("argv", [
    ("lie", "character", "--weight", "4000000000000001", "--angles", "0.7"),
    ("lie", "character", "--weight", "4000000000000001", "--angles", "0.7", "--xi"),
    ("orbital", "poly", "--n", "1", "--sigma", "4000000000000001", "--angles", "0.7"),
], ids=["character", "character-xi", "poly"])
def test_a_phase_past_the_float_rounding_is_a_numerical_guard(capsys, argv):
    """k*phi rounds by up to 0.31 rad here; the character printed 0.99233
    where cos(k phi) is 0.98931."""
    assert invoke(capsys, *argv) == (3, "", (
        "numerical guard: phases k*phi at angles up to 0.69999999999999996 may be off by "
        "3.109e-01 rad, past 1e-09\n"))


def test_delta_m_refuses_a_rank_past_the_bound(capsys, tmp_path, monkeypatch):
    """A rank past MAX_RANK, from the command line or a config file, is
    refused before delta is built."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 10**400}))
    with monkeypatch.context() as patch:
        patch.setattr(selberg.lie, "range", None, raising=False)  # a build would fail
        for argv, n in ((("--n", "10000000"), 10**7), (("--config", str(cfg)), 10**400)):
            code, out, err = invoke(capsys, "lie", "delta-m", *argv)
            assert (code, out) == (2, "")
            assert err.startswith("error: rank must be between 1 and ")
            assert err.endswith(f", got {n}\n") and err.count("\n") == 1
    bound = selberg.lie.MAX_RANK
    assert invoke(capsys, "lie", "delta-m", "--n", str(bound))[0] == 0
    assert invoke(capsys, "lie", "delta-m", "--n", str(bound + 1)) == (
        2, "", f"error: rank must be between 1 and {bound}, got {bound + 1}\n")


def test_character_refuses_a_rank_past_the_bound(capsys):
    """The bound trips before the n(n-1)/2 angle differences are formed."""
    n = selberg.lie.MAX_RANK + 1
    angles = ",".join(f"{0.1 + 1e-3 * i:.4f}" for i in range(n))
    assert invoke(capsys, "lie", "character", "--weight", ",".join(["0"] * n), "--angles",
                  angles) == (2, "", f"error: rank must be between 1 and {n - 1}, got {n}\n")


def test_character_output(capsys):
    code, out, _ = invoke(
        capsys, "lie", "character", "--weight", "1,0", "--angles", "pi/3,pi/5"
    )
    assert code == 0
    re, im = (float(x) for x in out.strip().split(","))
    expected = 2 * math.cos(math.pi / 3) + 2 * math.cos(math.pi / 5)
    assert re == pytest.approx(expected, abs=1e-12)
    assert im == pytest.approx(0.0, abs=1e-12)


def test_orbital_poly_output(capsys):
    code, out, _ = invoke(
        capsys, "orbital", "poly", "--n", "2", "--sigma", "1,1",
        "--angles", "0,pi/2",
    )
    assert code == 0
    values = [complex(x.strip("()")) for x in out.strip().split(",")]
    poly = orbital_polynomial(WeightVector.from_coords([1, 1]), EllipticAngles((0.0, math.pi / 2)))
    assert len(values) == len(poly.coeffs)
    for got, want in zip(values, poly.coeffs):
        assert got == pytest.approx(want, abs=1e-14)


def test_orbital_poly_rejects_rank_7(capsys):
    code, _, err = invoke(
        capsys, "orbital", "poly", "--n", "7", "--sigma", "0,0,0,0,0,0,0",
        "--angles", "0,0,0,0,0,0,0",
    )
    assert code == 2
    assert "between 1 and 6" in err


def test_orbital_poly_rejects_bad_weight(capsys):
    code, _, err = invoke(
        capsys, "orbital", "poly", "--n", "2", "--sigma", "0,1", "--angles", "0,1"
    )
    assert code == 2
    assert "dominant" in err


def test_orbital_plancherel_rank2_output(capsys):
    # (1/(24 pi^3)) * dim 4 * nu^2 (nu^2 + 4) for sigma = (1, 0)
    code, out, _ = invoke(capsys, "orbital", "plancherel", "--sigma", "1,0")
    assert code == 0
    values = [float(x) for x in out.strip().split(",")]
    want = [0.0, 2 / (3 * math.pi**3), 1 / (6 * math.pi**3)]
    assert len(values) == len(want)
    assert all(abs(g - w) <= 1e-15 * w for g, w in zip(values, want)), values


def test_validate_dry_run(capsys, group_file):
    code, out, _ = invoke(
        capsys, "spectrum", "enumerate", "--group", group_file,
        "--max-word-len", "4", "--cutoff", "9", "--validate",
    )
    assert code == 0
    assert out == "ok\n"


def test_spectrum_enumerate_and_classify(capsys, group_file, tmp_path):
    out_path = tmp_path / "spec.csv"
    code, _, _ = invoke(
        capsys, "spectrum", "enumerate", "--group", group_file,
        "--max-word-len", "4", "--cutoff", "9", "--out", str(out_path),
    )
    assert code == 0
    spectrum = LengthSpectrum.read_csv(out_path)
    lengths = sorted({round(x, 9) for x in spectrum.part("hyperbolic").length.tolist()})
    assert lengths == pytest.approx([2.0, 4.0, 6.0, 8.0])

    code, out, _ = invoke(
        capsys, "spectrum", "classify", "--group", group_file, "--word", "1,1"
    )
    assert code == 0
    assert out.splitlines()[0] == "kind,l,theta"
    kind, l, theta = out.splitlines()[1].split(",")
    assert kind == "hyperbolic"
    assert float(l) == pytest.approx(4.0, abs=1e-12)
    assert float(theta) == 0.0


def test_spectrum_enumerate_rejects_torsion_free_subgroup(capsys, tmp_path):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({**GROUP_JSON, "torsion_free_subgroup": {"words": [[1, 1]]}}))
    code, out, err = invoke(capsys, "spectrum", "enumerate", "--group", str(path),
                            "--max-word-len", "4", "--cutoff", "9")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "torsion_free_subgroup" in err


def _group_file(path, spec):
    """Write ``spec`` as a group-spec file at ``path``, entries as [re, im]."""
    def rows(matrices):
        return [[[[x.real, x.imag] for x in row] for row in m.tolist()] for m in matrices]

    data = {"model": spec.model, "generators": rows(spec.generators)}
    if spec.chi is not None:
        data["chi"] = rows(spec.chi)
    path.write_text(json.dumps(data))
    return path


def test_coxeter_534_hyperbolic_heat_term(capsys, tmp_path):
    """``spectrum enumerate`` then ``zeta heat-terms`` on the [5,3,4]
    fixture: the hyperbolic term is the sum over the classes of
    (l0/m) (4 pi t)^(-1/2) e^(-l^2/4t) / (2 (cosh l - cos theta)), with l0
    and m from the fixed-point oracle, not from the spectrum file."""
    start = time.perf_counter()
    spec = coxeter_534_spec()
    group, spectrum = _group_file(tmp_path / "coxeter.json", spec), tmp_path / "coxeter.csv"
    code, _, _ = invoke(capsys, "spectrum", "enumerate", "--group", str(group),
                        "--max-word-len", "10", "--cutoff", "3.5", "--out", str(spectrum))
    assert code == 0
    with pytest.warns(UserWarning, match="no centralizer volumes"):
        code, out, _ = invoke(capsys, "zeta", "heat-terms", "--spectrum", str(spectrum),
                              "--sigma", "0", "--t", "0.1", "--allow-ambiguous")
    assert code == 0
    header, row = out.splitlines()
    re_h = float(dict(zip(header.split(","), row.split(",")))["re_H"])
    hyper = LengthSpectrum.read_csv(spectrum).part("hyperbolic")
    ball = list(enumerate_elements(spec, 10).matrices)
    oracle = axis_fixer_oracle([spec.word_matrix(w) for w in hyper.word], ball)
    t = 0.1
    want = math.fsum(
        (l0 / m) * (4 * math.pi * t) ** -0.5 * math.exp(-length**2 / (4 * t))
        / (2 * (math.cosh(length) - math.cos(theta)))
        for length, theta, (m, l0)
        in zip(hyper.length.tolist(), hyper.angles_of_rank(1)[:, 0].tolist(), oracle)
    )
    assert len(hyper.kind) == 156 and want == pytest.approx(0.25274, abs=5e-6)
    assert re_h == pytest.approx(want, rel=1e-9)
    assert time.perf_counter() - start < 5.0


def test_coxeter_534_covolume_and_identity_term(capsys, tmp_path):
    """The [5,3,4] tetrahedron's volume by Lobachevsky's orthoscheme
    formula and by quadrature in the Klein model; the rotation subgroup's
    covolume is twice it, and ``zeta heat-terms --vol`` with it prints the
    identity term vol (4 pi t)^(-3/2)."""
    lobachevsky = orthoscheme_volume(math.pi / 5, math.pi / 3, math.pi / 4)
    quadrature = klein_tetrahedron_volume(*coxeter_534_gram_normals(), points=20)
    assert abs(lobachevsky - quadrature) < 1e-12
    assert lobachevsky == pytest.approx(0.0358850633, abs=1e-9)
    assert quadrature == pytest.approx(0.0358850633, abs=1e-9)
    group = _group_file(tmp_path / "coxeter.json", coxeter_534_spec())
    spectrum = tmp_path / "coxeter.csv"
    code, _, _ = invoke(capsys, "spectrum", "enumerate", "--group", str(group),
                        "--max-word-len", "4", "--cutoff", "3", "--out", str(spectrum))
    assert code == 0
    vol, t = 2 * lobachevsky, 0.1
    with pytest.warns(UserWarning, match="no centralizer volumes"):
        code, out, _ = invoke(capsys, "zeta", "heat-terms", "--spectrum", str(spectrum),
                              "--sigma", "0", "--vol", repr(vol), "--t", repr(t),
                              "--allow-ambiguous")
    assert code == 0
    header, row = out.splitlines()
    re_i = float(dict(zip(header.split(","), row.split(",")))["re_I"])
    assert re_i == pytest.approx(0.0509482084193646, rel=1e-12)
    assert re_i == pytest.approx(vol * (4 * math.pi * t) ** -1.5, rel=1e-12)


def test_zeta_eval_roundtrip_bitwise(capsys, group_file, tmp_path):
    spec_path = tmp_path / "spec.csv"
    invoke(
        capsys, "spectrum", "enumerate", "--group", group_file,
        "--max-word-len", "4", "--cutoff", "9", "--out", str(spec_path),
    )
    args = (
        "zeta", "eval", "--spectrum", str(spec_path), "--sigma", "0",
        "--s-grid", "2:4:0.5", "--allow-ambiguous",
    )
    out1 = tmp_path / "eval1.csv"
    out2 = tmp_path / "eval2.csv"
    code1, _, _ = invoke(capsys, *args, "--out", str(out1))
    code2, _, _ = invoke(capsys, *args, "--out", str(out2))
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, *rows = out1.read_text().splitlines()
    assert header == "re_s,im_s,re_logZ,im_logZ,abs_Z"
    assert len(rows) == 5

    # spectrum written then re-read gives bitwise-identical zeta values
    spectrum = LengthSpectrum.read_csv(spec_path)
    rewritten = tmp_path / "spec2.csv"
    rewritten.write_text(spectrum.to_csv(), encoding="utf-8")
    out3 = tmp_path / "eval3.csv"
    code3, _, _ = invoke(
        capsys, "zeta", "eval", "--spectrum", str(rewritten), "--sigma", "0",
        "--s-grid", "2:4:0.5", "--allow-ambiguous", "--out", str(out3),
    )
    assert code3 == 0
    assert out1.read_bytes() == out3.read_bytes()


def test_zeta_eval_refuses_ambiguous_without_flag(capsys, schottky_file, tmp_path):
    spec_path = tmp_path / "spec.csv"
    invoke(
        capsys, "spectrum", "enumerate", "--group", schottky_file,
        "--max-word-len", "4", "--cutoff", "9", "--out", str(spec_path),
    )
    code, _, err = invoke(
        capsys, "zeta", "eval", "--spectrum", str(spec_path), "--sigma", "0",
        "--s-grid", "2:3:1",
    )
    assert code == 3
    assert "ambig" in err.lower()


def test_zeta_heat_terms_refuses_ambiguous_without_flag(capsys, schottky_file, tmp_path):
    spec_path = tmp_path / "spec.csv"
    invoke(
        capsys, "spectrum", "enumerate", "--group", schottky_file,
        "--max-word-len", "3", "--cutoff", "7", "--out", str(spec_path),
    )
    assert "# ambiguous=0.1.2.3.4.5" in spec_path.read_text()
    args = ("zeta", "heat-terms", "--spectrum", str(spec_path), "--sigma", "0", "--t", "0.5")
    code, out, err = invoke(capsys, *args)
    assert code == 3 and out == ""
    assert "ambig" in err.lower()
    code, _, _ = invoke(capsys, *args, "--allow-ambiguous")
    assert code == 0


def test_zeta_heat_terms_output(capsys, group_file, tmp_path):
    spec_path = tmp_path / "spec.csv"
    invoke(
        capsys, "spectrum", "enumerate", "--group", group_file,
        "--max-word-len", "3", "--cutoff", "7", "--out", str(spec_path),
    )
    code, out, _ = invoke(
        capsys, "zeta", "heat-terms", "--spectrum", str(spec_path), "--sigma", "0",
        "--t", "0.5,1.0", "--vol", "2.0", "--allow-ambiguous",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,re_I,im_I,re_E,im_E,re_H,im_H"
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.5
    assert first[1] == pytest.approx(2.0 * (4 * math.pi * 0.5) ** -1.5, rel=1e-12)


def test_heat_trace_output(capsys):
    code, out, _ = invoke(
        capsys, "heat", "trace", "--model", "circle-reflection", "--t", "1.0"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,trace"
    t, trace = (float(x) for x in lines[1].split(","))
    assert trace == pytest.approx(1.3863186024133263, rel=1e-13)


def test_heat_fit_output(capsys):
    code, out, _ = invoke(capsys, "heat", "fit", "--model", "circle-reflection")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# expected_leading=")
    assert lines[1] == "exponent,coefficient"
    rows = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[2:]}
    assert rows[-0.5] == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-3)
    assert rows[0.0] == pytest.approx(0.5, abs=1e-5)


def test_heat_weyl_output(capsys):
    code, out, _ = invoke(
        capsys, "heat", "weyl", "--model", "circle-reflection", "--rmax", "40000"
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert float(row[0]) == pytest.approx(1.0, rel=0.02)
    assert float(row[1]) == 1.0


def test_heat_rejects_nonpositive_time(capsys):
    code, _, err = invoke(capsys, "heat", "trace", "--model", "circle", "--t", "-1")
    assert code == 2


# rows frozen from the lattice-enumerating count (cumulative exact_spectrum multiplicities)
HEAT_WEYL_FROZEN = [
    (("--model", "pillowcase", "--rmax", "1e6"),
     "1.5707909711684371,1.5707963267948966,3.4094976974846567e-06,1570775"),
    (("--model", "pillowcase", "--rmax", "1e4"),
     "1.5707833080424887,1.5707963267948966,8.2879951944205301e-06,15709"),
    (("--model", "pillowcase", "--sides", "6.910885,5.80936", "--rmax", "1e3"),
     "1.5980193474962063,1.5974309574207699,0.00036833521517978487,1602"),
    (("--model", "circle", "--rmax", "4e4"),
     "2.0000541094153972,2,2.705470769859275e-05,401"),
    (("--model", "circle-reflection", "--rmax", "4e4"),
     "1.0028995563728162,1,0.0028995563728162477,201"),
    # the lattice radius 3.2e15 lies just below the 2^52 refusal
    (("--model", "circle", "--rmax", "1e31"), "2,2,0,6324555320336759"),
]


@pytest.mark.parametrize("argv,row", HEAT_WEYL_FROZEN, ids=[
    "pillowcase-1e6", "pillowcase-1e4", "pillowcase-sides-1e3", "circle-4e4", "circle-reflection-4e4",
    "circle-1e31",
])
def test_heat_weyl_frozen_output(capsys, argv, row):
    code, out, _ = invoke(capsys, "heat", "weyl", *argv)
    assert code == 0
    assert out == f"fitted,predicted,relative_error,eigenvalues\n{row}\n"


BAD_HEAT_INPUTS = {
    "weyl-circle-rmax-inf": ("weyl", "--model", "circle", "--rmax", "inf"),
    "weyl-pillowcase-rmax-inf": ("weyl", "--model", "pillowcase", "--rmax", "inf"),
    "weyl-rmax-nan": ("weyl", "--model", "pillowcase", "--rmax", "nan"),
    "weyl-radius-0": ("weyl", "--model", "circle", "--radius", "0", "--rmax", "4e4"),
    "weyl-radius-negative": ("weyl", "--model", "circle-reflection", "--radius", "-1", "--rmax", "4e4"),
    "trace-radius-negative": ("trace", "--model", "circle", "--radius", "-1", "--t", "0.1"),
    "trace-t-inf": ("trace", "--model", "circle", "--t", "inf"),
    "fit-t-grid-nan": ("fit", "--model", "circle", "--t-grid", "nan,0.001,0.002,0.003,0.004"),
    "weyl-side-nan": ("weyl", "--model", "pillowcase", "--sides", "nan,6", "--rmax", "1e4"),
    "fit-three-sides": ("fit", "--model", "pillowcase", "--sides", "6,6,6"),
}


@pytest.mark.parametrize("argv", BAD_HEAT_INPUTS.values(), ids=BAD_HEAT_INPUTS.keys())
def test_heat_rejects_non_finite_or_nonpositive_input(capsys, argv):
    code, out, err = invoke(capsys, "heat", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback


#: flat-model inputs that could not finish: a lattice radius r sqrt(rmax)
#: of 2^52 or more, where the circle count stepped for ever, and axes of
#: 6.7e150, 2.1e202 and 1.6e8 modes
UNFINISHABLE_HEAT_INPUTS = {
    "weyl-circle-rmax-1e33": (("weyl", "--model", "circle", "--rmax", "1e33"), "2^52"),
    "trace-circle-t-1e-300": (("trace", "--model", "circle", "--t", "1e-300"), "modes"),
    "fit-circle-radius-1e200": (("fit", "--model", "circle", "--radius", "1e200"), "modes"),
    "weyl-pillowcase-sides-1e6": (("weyl", "--model", "pillowcase", "--sides", "1e6,1e6",
                                   "--rmax", "1e6"), "modes"),
}


class _NoModeArrays:
    """numpy for ``selberg.heat``, except that an array of modes or a
    lattice step fails the test instead of running."""

    def __getattr__(self, name):
        if name in ("arange", "floor"):
            raise AssertionError(f"np.{name} ran before the refusal")
        return getattr(np, name)


@pytest.mark.parametrize("argv,word", UNFINISHABLE_HEAT_INPUTS.values(),
                         ids=UNFINISHABLE_HEAT_INPUTS.keys())
def test_heat_refuses_input_that_cannot_finish(capsys, monkeypatch, argv, word):
    monkeypatch.setattr(selberg.heat, "np", _NoModeArrays())
    code, out, err = invoke(capsys, "heat", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and word in err


def test_heat_trace_at_a_tiny_radius_warns_nothing(capsys):
    """Squares (m / r)^2 past the float range weigh 0 without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert invoke(capsys, "heat", "trace", "--model", "pillowcase", "--sides", "1e-300,1",
                      "--t", "1") == (0, "t,trace\n1,1\n", "")


BAD_SPECTRUM_INPUTS = {
    "enumerate-cutoff-nan": ("spectrum", "enumerate", "--group", "{group}",
                             "--max-word-len", "2", "--cutoff", "nan"),
    "enumerate-element-cap-negative": ("spectrum", "enumerate", "--group", "{group}",
                                       "--max-word-len", "2", "--cutoff", "5",
                                       "--element-cap", "-5"),
    "eval-cutoff-nan": ("zeta", "eval", "--s-grid", "2:3:1", "--cutoff", "nan"),
    "eval-chi-dim-negative": ("zeta", "eval", "--s-grid", "2:3:1", "--chi-dim", "-3"),
    "heat-terms-vol-nan": ("zeta", "heat-terms", "--t", "0.5", "--vol", "nan"),
    "heat-terms-vol-inf": ("zeta", "heat-terms", "--t", "0.5", "--vol", "inf"),
    "xi-vol-inf": ("zeta", "xi", "--s", "3", "--vol", "inf"),
    "xi-s-nan": ("zeta", "xi", "--s", "3,nan"),
    "xi-s-inf": ("zeta", "xi", "--s", "inf"),
}


@pytest.mark.parametrize("argv", BAD_SPECTRUM_INPUTS.values(), ids=BAD_SPECTRUM_INPUTS.keys())
def test_spectrum_and_zeta_reject_non_finite_or_nonpositive_input(capsys, group_file, tmp_path, argv):
    spec_path = tmp_path / "spec.csv"
    invoke(
        capsys, "spectrum", "enumerate", "--group", group_file,
        "--max-word-len", "3", "--cutoff", "7", "--out", str(spec_path),
    )
    argv = [a.format(group=group_file) for a in argv]
    if argv[0] == "zeta":
        argv[2:2] = ["--spectrum", str(spec_path), "--sigma", "1", "--allow-ambiguous"]
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback


BAD_GROUPS = {  # name -> (group-spec keys over GROUP_JSON, the error)
    "generator-nan": ({"generators": [[[math.nan, 0.0], [0.0, 1.0]]]},
                      "generator 1 has an entry that is not finite"),
    "generator-inf": ({"generators": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, math.inf], [0.0, 1.0]]]},
                      "generator 2 has an entry that is not finite"),
    "chi-nan": ({"chi": [[[1.0, math.nan], [0.0, 1.0]]]}, "chi matrix 1 has an entry that is not finite"),
    "chi-singular": ({"chi": [[[1.0, 2.0], [2.0, 4.0]]]}, "chi matrix is numerically singular"),
}


@pytest.mark.parametrize("keys,error", BAD_GROUPS.values(), ids=BAD_GROUPS.keys())
def test_bad_group_spec_exits_2(capsys, tmp_path, keys, error):
    """A NaN or infinite entry is refused before any check compares with it,
    and a singular chi matrix is refused; each exits 2 with one line."""
    path = tmp_path / "group.json"
    path.write_text(json.dumps({**GROUP_JSON, **keys}))  # NaN and Infinity, as Python's JSON has them
    code, out, err = invoke(capsys, "spectrum", "enumerate", "--group", str(path),
                            "--max-word-len", "2", "--cutoff", "5")
    assert (code, out, err) == (2, "", f"error: {error}\n")


NOT_MATRICES = "group-spec key {!r} must list matrices as lists of rows"
BAD_ENTRY = "{} has an entry that is not a number or [re, im] pair: {!r}"
MALFORMED_GROUPS = {  # name -> (the group-spec JSON value, the error)
    "no-generators": ({"model": GROUP_JSON["model"]}, "group spec needs the key 'generators'"),
    "no-model": ({"generators": GROUP_JSON["generators"]}, "group spec needs the key 'model'"),
    "generators-number": ({**GROUP_JSON, "generators": 5}, NOT_MATRICES.format("generators")),
    "generators-list-of-number": ({**GROUP_JSON, "generators": [5]},
                                  NOT_MATRICES.format("generators")),
    "chi-number": ({**GROUP_JSON, "chi": 7}, NOT_MATRICES.format("chi")),
    "entry-text": ({**GROUP_JSON, "generators": [[[math.e, "a"], [0.0, 1 / math.e]]]},
                   BAD_ENTRY.format("generator 1", "a")),
    "entry-null": ({**GROUP_JSON, "chi": [[[None]]]}, BAD_ENTRY.format("chi matrix 1", None)),
    "entry-numeric-text": ({**GROUP_JSON, "chi": [[["1"]]]}, BAD_ENTRY.format("chi matrix 1", "1")),
    "entry-complex-text": ({**GROUP_JSON, "chi": [[["1+2j"]]]},
                           BAD_ENTRY.format("chi matrix 1", "1+2j")),
    "entry-bool": ({**GROUP_JSON, "chi": [[[True]]]}, BAD_ENTRY.format("chi matrix 1", True)),
    "entry-pair-text": ({**GROUP_JSON, "chi": [[[["1", 0]]]]},
                        BAD_ENTRY.format("chi matrix 1", ["1", 0])),
    "entry-triple": ({**GROUP_JSON, "chi": [[[[1, 0, 0]]]]},
                     BAD_ENTRY.format("chi matrix 1", [1, 0, 0])),
    "entry-huge-integer": ({**GROUP_JSON, "chi": [[[10**400]]]},
                           BAD_ENTRY.format("chi matrix 1", 10**400)),
    "top-level-array": ([1, 2], "group spec must be a JSON object"),
    "chi-empty": ({**GROUP_JSON, "chi": [[]]}, "chi matrices must be square and not empty"),
}


@pytest.mark.parametrize("data,error", MALFORMED_GROUPS.values(), ids=MALFORMED_GROUPS.keys())
def test_malformed_group_spec_exits_2(capsys, tmp_path, data, error):
    """A spec of the wrong shape, with a key missing or an entry that is not
    a number, exits 2 with one line naming the key or entry, through
    ``spectrum enumerate`` and ``spectrum classify`` alike."""
    path = tmp_path / "group.json"
    path.write_text(json.dumps(data))
    for argv in (("enumerate", "--max-word-len", "2", "--cutoff", "5"),
                 ("classify", "--word", "1")):
        code, out, err = invoke(capsys, "spectrum", *argv, "--group", str(path))
        assert (code, out, err) == (2, "", f"error: {error}\n")


def test_enumerate_refuses_a_twist_trace_that_is_not_finite(capsys, tmp_path):
    """chi(g) = 1e200 overflows along g.g: a numerical guard naming the word,
    with no numpy warning, where rows of inf and nan were written."""
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"model": "H2-real-2x2", "generators": [[[3.0, 0.0], [0.0, 1 / 3]]],
                                "chi": [[[1e200]]]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(capsys, "spectrum", "enumerate", "--group", str(path),
                                "--max-word-len", "3", "--cutoff", "10")
    assert (code, out) == (3, "")
    assert err == "numerical guard: twist trace is not finite along the word 1.1\n"


@pytest.mark.parametrize("argv,message", [
    (("zeta", "pfrac", "--s", "1,2"), "invalid choice: 'pfrac'"),
    (("zeta", "eval", "--spectrum", "x.csv", "--sigma", "1", "--s-grid", "2:3:1",
      "--conjugate-sigma-trace"), "unrecognized arguments: --conjugate-sigma-trace"),
], ids=["pfrac", "conjugate-sigma-trace"])
def test_removed_zeta_options_are_rejected(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3}))
    code, out, _ = invoke(
        capsys, "lie", "delta-m", "--n", "2", "--config", str(cfg)
    )
    # explicit flag wins
    assert code == 0 and out == "1,0\n"
    cfg2 = tmp_path / "cfg2.json"
    cfg2.write_text(json.dumps({"count": True}))
    code, out, _ = invoke(
        capsys, "lie", "weyl", "--n", "2", "--config", str(cfg2)
    )
    assert code == 0 and out.strip() == "4"


def test_config_supplies_a_required_option(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 3}))
    for spelling in ("--config", "--conf"):
        code, out, _ = invoke(capsys, "lie", "weyl", "--count", spelling, str(cfg))
        assert (code, out) == (0, "24\n")
    # an ambiguous prefix is argparse's usage error, not a config file
    with pytest.raises(SystemExit) as exc:
        run(["lie", "weyl", "--count", "--c", str(cfg)])
    assert exc.value.code == 2
    assert "ambiguous option: --c could match --count, --config" in capsys.readouterr().err


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"wibble": 1}))
    code, _, err = invoke(capsys, "lie", "delta-m", "--n", "2", "--config", str(cfg))
    assert code == 2
    assert "unknown config key" in err


def test_exit_code_validation_error(capsys):
    code, _, err = invoke(capsys, "lie", "delta-m", "--n", "0")
    assert code == 2
    assert "error:" in err


def test_parse_grid_has_no_drift():
    grid = _parse_grid("0:10000:0.1")
    assert len(grid) == 100_001
    assert grid[-1] == 10000.0
    assert _parse_grid("2:4:0.5") == [2.0, 2.5, 3.0, 3.5, 4.0]
    assert len(_parse_grid("1:2:0.5,0:1:0.25")) == 15


def test_parse_grid_of_one_point_at_any_magnitude():
    """start == stop is one point, however large the bounds are next to the step."""
    for x in (0.0, 1.0, -7.25, 1e13, -1e15, 1e300, -1.7e308, 5e-324):
        for step in (1e-9, 0.5, 1.0, 1e300):
            assert _parse_grid(f"{x!r}:{x!r}:{step!r}") == [complex(x, 0.0)]
            assert _parse_grid(f"0:0:1,{x!r}:{x!r}:{step!r}") == [complex(0.0, x)]


@pytest.mark.parametrize("grid,count", [("0:1:0.1", 11), ("0:0.3:0.1", 4),
                                        ("10000:10000.3:0.1", 4), ("100000:100001.2:0.1", 13),
                                        ("1e13:10000000000005:0.5", 11),
                                        ("1e15:1000000000000002:1", 3)])
def test_parse_grid_counts_to_stop(grid, count):
    """Decimal grids, large bounds included, end at stop: no point short, none past."""
    assert len(_parse_grid(grid)) == count


def test_parse_grid_counts_the_benchmark_grids():
    """start:start+5:0.05, start rounded to two places, as the spectral-zeta
    workload writes it, is 101 points for every start it can draw."""
    for cents in range(200, 400):
        start = round(cents / 100, 2)
        assert len(_parse_grid(f"{start}:{start + 5.0}:{5.0 / 100}")) == 101, start


@pytest.mark.parametrize("grid", ["5:4:1", "0:1:0.5,1:0:0.5", "-1e-300:-2e-300:1", "1:0.5:1"])
def test_parse_grid_refuses_a_reversed_axis(grid):
    """An axis whose stop is below its start, the imaginary one too, has no
    point; it is refused rather than giving an empty grid."""
    with pytest.raises(ValidationError, match="stop below its start"):
        _parse_grid(grid)


def test_zeta_eval_refuses_a_reversed_grid(capsys, tmp_path):
    spec = tmp_path / "small.csv"
    spec.write_text(small_h3_spectrum_csv())
    code, out, err = invoke(capsys, "zeta", "eval", "--spectrum", str(spec), "--sigma", "1",
                            "--s-grid", "5:4:1")
    assert (code, out) == (2, "")
    assert err == "error: grid axis '5:4:1' has its stop below its start\n"


@pytest.mark.parametrize("grid", ["0:1e9:1e-9", "0:1000:1,0:1000:1", "-1e308:1e308:1e-300"])
def test_parse_grid_refuses_too_many_points(grid):
    with pytest.raises(ValidationError, match="more than 1000000 points"):
        _parse_grid(grid)
    assert len(_parse_grid("0:999:1,0:999:1")) == MAX_GRID_POINTS == 10**6


def overflow_spectrum(tmp_path, tr_chi=-1e6):
    """Five classes, l = 0.1..0.5, D = l^2, theta = 1.  Each class adds
    -tr_chi * 35.1 to Re log Z at s = 4 for sigma = 1: at the default, far
    beyond the largest finite exponential."""
    lines = ["# selberg-spectrum spec_hash=overflow cutoff=1 max_word_len=0 "
             "model=H3-complex-2x2",
             "kind,l,l0,power,theta,D,v,re_trchi,im_trchi,word"]
    for i in range(1, 6):
        l = 0.1 * i
        lines.append(f"hyperbolic,{l!r},{l!r},1,1.0,{l * l!r},1,{tr_chi!r},0.0,{i}")
    path = tmp_path / "overflow.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_zeta_eval_refuses_huge_grid(capsys, tmp_path):
    spec = overflow_spectrum(tmp_path)
    code, out, err = invoke(capsys, "zeta", "eval", "--spectrum", spec, "--sigma", "0",
                            "--s-grid", "0:1e9:1e-9")
    assert code == 2 and out == ""
    assert "more than 1000000 points" in err


def test_zeta_eval_prints_inf_when_abs_z_overflows(capsys, tmp_path):
    spec = overflow_spectrum(tmp_path)
    code, out, _ = invoke(capsys, "zeta", "eval", "--spectrum", spec, "--sigma", "0",
                          "--s-grid", "4:5:1")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["4", "5"]
    for r in rows:
        assert math.isfinite(float(r[2])) and float(r[2]) > 1000
        assert r[4] == "inf"


def test_zeta_xi_overflow_is_numerical_guard(capsys, tmp_path):
    spec = overflow_spectrum(tmp_path)
    code, _, err = invoke(capsys, "zeta", "xi", "--spectrum", spec, "--sigma", "1", "--s", "4")
    assert code == 3
    assert "s = (4+0j)" in err


def test_zeta_xi_product_overflow_is_numerical_guard(capsys, tmp_path):
    # at s = 4, Re log Z = 527 at sigma = 1 and at its flip: each zeta factor
    # is finite, their product is not
    spec = overflow_spectrum(tmp_path, tr_chi=-15.0)
    code, out, _ = invoke(capsys, "zeta", "eval", "--spectrum", spec, "--sigma", "1",
                          "--s-grid", "4:4:1")
    assert code == 0
    assert 500 < float(out.splitlines()[1].split(",")[2]) < 709
    code, out, err = invoke(capsys, "zeta", "xi", "--spectrum", spec, "--sigma", "1",
                            "--s", "4")
    assert code == 3 and out == ""
    assert "not finite at s = (4+0j)" in err
    # at s = -4, Z(s, sigma) Z(s, w0 sigma) = e^{442} and the Plancherel
    # factor e^{403} are each finite, their product is not
    spec = overflow_spectrum(tmp_path, tr_chi=-2.0)
    code, out, err = invoke(capsys, "zeta", "xi", "--spectrum", spec, "--sigma", "1",
                            "--vol", "50", "--s", "-4")
    assert code == 3 and out == ""
    assert "not finite at s = (-4+0j)" in err


# help, usage and error text and zeta output frozen from the code before the
# parser was built per invocation (Python 3.11 argparse, COLUMNS=80)
FROZEN = json.loads((Path(__file__).parent / "frozen_cli.json").read_text())
frozen_argparse = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="text frozen from Python 3.11's argparse"
)


def exit_code(argv) -> int:
    """run's return value, or the code of the SystemExit argparse raises."""
    try:
        return run(list(argv))
    except SystemExit as exc:
        return exc.code


# each frozen case runs twice in one process: cached parsers and a memoized
# spectrum must give the same text as a first run

@frozen_argparse
@pytest.mark.parametrize("argv", FROZEN["help"])
def test_help_text_is_frozen(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        assert exit_code(argv.split()) == 0
        assert capsys.readouterr().out == FROZEN["help"][argv]


@frozen_argparse
@pytest.mark.parametrize("argv", FROZEN["errors"])
def test_usage_errors_are_frozen(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        code = exit_code(argv.split())
        captured = capsys.readouterr()
        assert [code, captured.out, captured.err] == FROZEN["errors"][argv]


@frozen_argparse
@pytest.mark.parametrize("argv", FROZEN["odd_argv"])
def test_odd_argv_text_is_frozen(capsys, monkeypatch, argv):
    """Argv that a subcommand's own parser does not parse alone, or not
    whole: an option before the group or subcommand, tokens between them, a
    token left over after a complete subcommand, and an option that lacks
    its value.  Text frozen from the parser tree alone."""
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        code = exit_code(argv.split())
        captured = capsys.readouterr()
        assert [code, captured.out, captured.err] == FROZEN["odd_argv"][argv]


def _valid_tokens(arguments, every: bool) -> list[str]:
    """Tokens that give a valid value to each required argument, or to every
    argument with ``every``."""
    tokens = []
    for flag, kwargs in arguments:
        if not (every or kwargs.get("required")):
            continue
        if kwargs.get("action") == "store_true":
            tokens.append(flag)
        elif "choices" in kwargs:
            tokens += [flag, kwargs["choices"][-1]]
        else:
            tokens += [flag, {int: "2", float: "1.5"}.get(kwargs.get("type"), "1,0")]
    return tokens


LEAVES = [(group, leaf) for group, (_, leaves) in _COMMANDS.items() for leaf in leaves]


@pytest.mark.parametrize("every", [False, True], ids=["required", "every"])
@pytest.mark.parametrize("group,leaf", LEAVES, ids=[" ".join(x) for x in LEAVES])
def test_own_parser_and_tree_give_the_same_namespace(group, leaf, every):
    """The parser of the argv past ``group leaf`` and the parser tree give
    the same values of the same types, defaults and handler included; only
    the tree records the group and subcommand it walked."""
    _, fn, arguments = _COMMANDS[group][1][leaf]
    tokens = _valid_tokens(arguments + selberg.cli._COMMON, every)
    own = vars(_leaf_parser(group, leaf).parse_args(tokens))
    tree = vars(_parser().parse_args([group, leaf, *tokens]))
    assert (tree.pop("command"), tree.pop("subcommand")) == (group, leaf)
    assert {k: (v, type(v)) for k, v in own.items()} == {k: (v, type(v)) for k, v in tree.items()}
    assert own["func"] is fn


def test_a_call_that_begins_with_its_subcommand_builds_no_tree(capsys, monkeypatch):
    """The common argv goes to the subcommand's own parser alone; only a
    leftover token sends it to the tree, which reports it."""
    tree = selberg.cli._parser
    calls = []
    monkeypatch.setattr(selberg.cli, "_parser", lambda *key: calls.append(key) or tree(*key))
    code, out, err = invoke(capsys, "lie", "character", "--weight", "1", "--angles", "0.3")
    assert (code, err, calls) == (0, "", []) and out.count(",") == 1
    assert exit_code(["lie", "character", "--weight", "1", "--angles", "0.3", "lie"]) == 2
    assert calls and "unrecognized arguments: lie" in capsys.readouterr().err


# argv that do not begin with a group and its subcommand -> exit code
ODD_ARGV = {
    "-h first": (["-h", "lie", "weyl", "--n", "3"], 0),
    "--he first": (["--he", "lie", "weyl", "--n", "3"], 0),
    "-h between": (["lie", "-h", "weyl", "--n", "3"], 0),
    "token between": (["lie", "x", "weyl", "--n", "3"], 2),
    "option between": (["lie", "--n", "3", "weyl"], 2),
    "unknown option first": (["-x", "lie", "weyl", "--n", "3"], 2),
    "-- first": (["--", "lie", "weyl", "--n", "3"], 2),
    "-- between": (["lie", "--", "weyl", "--n", "3"], 2),
    "empty": ([], 2),
    "group alone": (["lie"], 2),
}


@pytest.mark.parametrize("config", [False, True], ids=["plain", "config"])
@pytest.mark.parametrize("argv,code", ODD_ARGV.values(), ids=ODD_ARGV.keys())
def test_only_an_argv_that_begins_with_its_subcommand_runs(capsys, monkeypatch, tmp_path,
                                                          argv, code, config):
    """The top-level and group parsers take no option but -h, so any other
    argv ends in argparse's help (exit 0) or usage error (exit 2), with no
    handler run and no --config file opened."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": True}))
    monkeypatch.setattr(selberg.cli, "read_json", lambda path: pytest.fail(f"opened {path}"))
    with pytest.raises(SystemExit) as exc:
        run(argv + (["--config", str(cfg)] if config else []))
    out, err = capsys.readouterr()
    assert exc.value.code == code
    if code:
        assert out == "" and err.startswith("usage: selberg") and "error: " in err
    else:
        assert out.startswith("usage: selberg") and err == ""


@pytest.mark.parametrize("argv,error", [
    (["zeta", "eval", "--s-grid", "3:4:1", "--sigma", "1", "--c", "3"],
     "--c could match --chi-dim, --cutoff, --config"),
    (["lie", "weyl", "--n", "3", "--c", "x.json"], "--c could match --count, --config"),
    (["lie", "weyl", "--n", "3", "--co=x.json"], "--co=x.json could match --count, --config"),
], ids=["zeta-c", "weyl-c", "weyl-co="])
def test_an_ambiguous_config_prefix_is_the_parser_s_error(capsys, monkeypatch, argv, error):
    """A prefix of --config that also begins another option of the
    subcommand names no file: argparse reports it and nothing is opened."""
    monkeypatch.setattr(selberg.cli, "read_json", lambda path: pytest.fail(f"opened {path}"))
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f": error: ambiguous option: {error}\n")


@pytest.mark.parametrize("key", FROZEN["zeta"])
def test_zeta_output_is_frozen(capsys, tmp_path, key):
    spec = tmp_path / "small.csv"
    spec.write_text(small_h3_spectrum_csv())
    extra = {
        "eval": ["--s-grid", "3:4:0.5,0:1:1"],
        "xi": ["--s", "3,3.5,5"],
        "heat-terms": ["--t", "0.1,0.5,2"],
    }
    name, sigma = key.split(" sigma=")
    for _ in range(2):
        code, out, _ = invoke(capsys, "zeta", name, "--sigma", sigma, "--spectrum", str(spec),
                              "--vol", "1.5", "--elliptic-vols", "0.5,0.75", *extra[name])
        assert code == 0
        assert out == FROZEN["zeta"][key]


def _log_zeta_200_bits(hyp, k: int, s: float) -> mpmath.mpc:
    """log Z at a real s for the rank-1 weight k, summed in 200-bit mpmath
    from a spectrum's parsed columns: -sum tr chi v e^{ik theta}
    e^{-(s+1) l} / (power e^l D)."""
    mp = mpmath.mpf
    with mpmath.workprec(200):
        return -mpmath.fsum(
            mpmath.mpc(chi.real, chi.imag) * mp(v.numerator) / v.denominator
            * mpmath.expj(k * mp(theta)) * mpmath.exp(-(mp(s) + 1) * mp(length))
            / (power * mpmath.exp(mp(length)) * mp(D))
            for chi, v, theta, length, power, D in zip(
                hyp.tr_chi.tolist(), hyp.v.tolist(), hyp.angles_of_rank(1)[:, 0].tolist(),
                hyp.length.tolist(), hyp.power.tolist(), hyp.D.tolist()))


@pytest.mark.parametrize("sigma", [0, 1])
def test_frozen_zeta_eval_is_within_4_ulp_of_a_200_bit_sum(tmp_path, sigma):
    """Both parts of log Z in each real-axis row of the frozen ``zeta eval``
    output lie within 4 ulp of the same class terms summed in mpmath."""
    path = tmp_path / "small.csv"
    path.write_text(small_h3_spectrum_csv())
    hyp = LengthSpectrum.read_csv(path).part("hyperbolic")
    _, *rows = FROZEN["zeta"][f"eval sigma={sigma}"].splitlines()
    parsed = [[float(x) for x in row.split(",")] for row in rows]
    real_axis = [row for row in parsed if row[1] == 0.0]
    assert len(real_axis) == 3
    for re_s, _, re_log, im_log, _ in real_axis:
        exact = _log_zeta_200_bits(hyp, sigma, re_s)
        for got, want in ((re_log, exact.real), (im_log, exact.imag)):
            assert abs(mpmath.mpf(got) - want) <= 4 * math.ulp(float(want)), (re_s, got)


#: the groups of FROZEN["enumerate"], by the first word of its keys
ENUMERATE_GROUPS = {
    "coxeter-534": coxeter_534_spec,
    "schottky": schottky_spec,
    # a twist that is not unitary
    "schottky-chi": lambda: schottky_spec(chi=[np.array([[1.3, 0.4], [0.1, 0.8]]),
                                                np.array([[0.9, -0.2], [0.3, 1.1]])]),
    "triangle-237": triangle_237_spec,
    "cyclic-h3": lambda: cyclic_h3_spec(1.3, 0.7),
}


# SHA-256 digests of the spectra frozen from the reduction that tested each
# axis fixer in the witness's eigenbasis
@pytest.mark.parametrize("key", FROZEN["enumerate"])
def test_enumerate_output_is_frozen(capsys, tmp_path, key):
    name, *argv = key.split()
    group = _group_file(tmp_path / "group.json", ENUMERATE_GROUPS[name]())
    code, out, err = invoke(capsys, "spectrum", "enumerate", "--group", str(group), *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN["enumerate"][key]


def test_frozen_h3_spectra_hold_their_angles(capsys, tmp_path):
    """The H3 spectra of FROZEN["enumerate"], checked apart from their
    digests: the [5,3,4] rotation classes come at their angles in [0, pi]
    as they are, and the cyclic group's g^k and g^-k at k * 0.7 mod 2pi."""
    spectra = {}
    for name in ("coxeter-534", "cyclic-h3"):
        _, *argv = next(key for key in FROZEN["enumerate"] if key.split()[0] == name).split()
        group = _group_file(tmp_path / f"{name}.json", ENUMERATE_GROUPS[name]())
        out = tmp_path / f"{name}.csv"
        assert invoke(capsys, "spectrum", "enumerate", "--group", str(group), *argv,
                      "--out", str(out)) == (0, "", "")
        spectra[name] = LengthSpectrum.read_csv(out)
    theta = spectra["coxeter-534"].part("elliptic").angles_of_rank(1)[:, 0]
    want = [2 * math.pi / 5, 4 * math.pi / 5, 2 * math.pi / 3, math.pi / 2] + [math.pi] * 3
    assert sorted(theta) == pytest.approx(sorted(want), abs=1e-12)
    hyper = spectra["cyclic-h3"].part("hyperbolic")
    k = np.rint(hyper.length / 1.3)
    assert len(k) == 16 and hyper.length == pytest.approx(1.3 * k, rel=1e-12)
    assert hyper.angles_of_rank(1)[:, 0] == pytest.approx(np.mod(0.7 * k, 2 * math.pi), abs=1e-12)


#: the word length and cutoff each group of ENUMERATE_GROUPS is reduced at
#: with its generators' lifts negated
LIFT_BALLS = {"coxeter-534": (8, 3.0), "schottky": (6, 12.0), "schottky-chi": (6, 12.0),
              "triangle-237": (10, 6.0), "cyclic-h3": (8, 12.0)}


@pytest.mark.parametrize("name", LIFT_BALLS)
def test_spectra_do_not_depend_on_the_lift_signs(capsys, tmp_path, name):
    """-g is the isometry g is: negating one generator, or every one,
    changes a spectrum file only in its spec hash on line 1, and
    ``spectrum classify`` prints the same for every word up to length 3."""
    spec = ENUMERATE_GROUPS[name]()
    count = len(spec.generators)
    patterns = [(k,) for k in range(count)] + [tuple(range(count))]
    lifts = [GroupSpec(spec.model, [-g if k in negated else g for k, g in
                                    enumerate(spec.generators)], spec.chi)
             for negated in [()] + patterns]
    bodies = {build_length_spectrum(lift, *LIFT_BALLS[name]).to_csv().split("\n", 1)[1]
              for lift in lifts}
    assert len(bodies) == 1
    groups = [str(_group_file(tmp_path / f"{k}.json", lift)) for k, lift in enumerate(lifts)]
    for word in reduced_words(count, 3)[1:]:
        argv = ("spectrum", "classify", f"--word={','.join(map(str, word))}", "--group")
        outs = {invoke(capsys, *argv, group) for group in groups}
        assert len(outs) == 1 and next(iter(outs))[0] == 0, word


def test_coxeter_534_elliptic_heat_term_does_not_depend_on_the_lift(capsys, tmp_path):
    """The elliptic heat term at sigma = 1 of the [5,3,4] fixture is the
    same with generator 1 negated: its rotation angles are those of +-m."""
    spec = coxeter_534_spec()
    flipped = GroupSpec(spec.model, [-spec.generators[0], *spec.generators[1:]])
    outs = []
    for k, lift in enumerate((spec, flipped)):
        group, spectrum = _group_file(tmp_path / f"{k}.json", lift), tmp_path / f"{k}.csv"
        assert invoke(capsys, "spectrum", "enumerate", "--group", str(group), "--max-word-len",
                      "8", "--cutoff", "3", "--out", str(spectrum))[0] == 0
        with pytest.warns(UserWarning, match="no centralizer volumes"):
            code, out, _ = invoke(capsys, "zeta", "heat-terms", "--spectrum", str(spectrum),
                                  "--sigma", "1", "--t", "0.1", "--allow-ambiguous")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


# the benchmark's pillowcase inputs, frozen from the per-bound lattice counts
# and the numpy-array heat sums
@pytest.mark.parametrize("key", FROZEN["heat"])
def test_heat_output_is_frozen(capsys, key):
    for _ in range(2):
        assert invoke(capsys, "heat", *key.split()) == (0, FROZEN["heat"][key], "")


def test_in_process_runs_match_fresh_processes(capsys, tmp_path):
    """Zeta ops run one after another in one process print what each prints
    alone in a fresh interpreter: the first op cuts the file's spectrum and
    the later ones reuse the memoized, uncut spectrum."""
    spec = tmp_path / "small.csv"
    spec.write_text(small_h3_spectrum_csv(seed=23))
    common = ["--spectrum", str(spec), "--sigma", "1", "--vol", "1.5",
              "--elliptic-vols", "0.5,0.75"]
    ops = [["zeta", "eval", *common, "--cutoff", "2", "--s-grid", "3:4:0.5"],
           ["zeta", "eval", *common, "--s-grid", "3:4:0.5"],
           ["zeta", "xi", *common, "--s", "3,3.5"],
           ["zeta", "heat-terms", *common, "--t", "0.1,0.5"]]
    in_process = [invoke(capsys, *argv)[:2] for argv in ops]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    fresh = [subprocess.Popen([sys.executable, "-m", "selberg.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
             for argv in ops]
    outs = [p.communicate()[0].decode() for p in fresh]
    assert [(p.returncode, out) for p, out in zip(fresh, outs)] == in_process
    assert [code for code, _ in in_process] == [0] * 4 and in_process[0] != in_process[1]


def test_the_console_entry_point_exits_with_the_code_of_run():
    """``python -m selberg.cli`` runs ``main``, the ``selberg`` script: its
    output and exit code are run's, argparse's usage error included."""
    cases = [  # argv, exit code, stdout, start of stderr
        (["lie", "delta-m", "--n", "3"], 0, "2,1,0\n", ""),
        (["lie", "bogus"], 2, "", "usage: selberg lie [-h]"),
        (["lie", "delta-m", "--n", "0"], 2, "", "error: rank must be between 1 and 1000, got 0\n"),
        (["heat", "fit", "--model", "circle", "--t-grid", "0.001,0.001,0.001,0.002"], 3, "",
         "numerical guard: fit design matrix has condition number "),
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    procs = [subprocess.Popen([sys.executable, "-m", "selberg.cli", *argv], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for argv, *_ in cases]
    for proc, (_, code, out, err) in zip(procs, cases):
        got_out, got_err = proc.communicate(timeout=60)
        assert (proc.returncode, got_out) == (code, out) and got_err.startswith(err)


SPECTRUM_HEADER = "# selberg-spectrum spec_hash=x cutoff=5 max_word_len=0 model=H3-complex-2x2"
BAD_SPECTRA = {  # name -> (first line, first class row); exactly one of them is bad
    "D-zero": (SPECTRUM_HEADER, "hyperbolic,1.0,1.0,1,0.5,0,1,1.0,0.0,1"),
    "power-zero": (SPECTRUM_HEADER, "hyperbolic,1.0,1.0,0,0.5,1.3,1,1.0,0.0,1"),
    "unknown-kind": (SPECTRUM_HEADER, "parabolic,1.0,1.0,1,0.5,1.3,1,1.0,0.0,1"),
    "l-nan": (SPECTRUM_HEADER, "hyperbolic,nan,1.0,1,0.5,1.3,1,1.0,0.0,1"),
    "D-empty": (SPECTRUM_HEADER, "hyperbolic,1.0,1.0,1,0.5,,1,1.0,0.0,1"),
    "l-text": (SPECTRUM_HEADER, "hyperbolic,abc,1.0,1,0.5,1.3,1,1.0,0.0,1"),
    "v-text": (SPECTRUM_HEADER, "hyperbolic,1.0,1.0,1,0.5,1.3,x,1.0,0.0,1"),
    "v-zero": (SPECTRUM_HEADER, "hyperbolic,1.0,1.0,1,0.5,1.3,0,1.0,0.0,1"),
    "trchi-inf": (SPECTRUM_HEADER, "hyperbolic,1.0,1.0,1,0.5,1.3,1,inf,0.0,1"),
    "elliptic-with-D": (SPECTRUM_HEADER, "elliptic,0,0,1,3.14,1.3,1,1.0,0.0,-1"),
    "elliptic-angle-nan": (SPECTRUM_HEADER, "elliptic,0,0,1,nan,,1,1.0,0.0,-1"),
    "eleven-fields": (SPECTRUM_HEADER, "hyperbolic,1.0,1.0,1,0.5,1.3,1,1.0,0.0,1,9"),
    "no-spec-hash": ("# selberg-spectrum cutoff=5 max_word_len=0",
                     "hyperbolic,1.0,1.0,1,0.5,1.3,1,1.0,0.0,1"),
    "cutoff-nan": (SPECTRUM_HEADER.replace("cutoff=5", "cutoff=nan"),
                   "hyperbolic,1.0,1.0,1,0.5,1.3,1,1.0,0.0,1"),
    "cutoff-zero": (SPECTRUM_HEADER.replace("cutoff=5", "cutoff=0"),
                    "hyperbolic,1.0,1.0,1,0.5,1.3,1,1.0,0.0,1"),
    "model-unknown": (SPECTRUM_HEADER.replace("H3-complex-2x2", "nonsense"),
                      "hyperbolic,1.0,1.0,1,0.5,1.3,1,1.0,0.0,1"),
    "byte-0xff": (SPECTRUM_HEADER, "hyperbolic,1.0,1.0,1,0.5,1.3,1,1.0,0.0,1\xff"),
}
SPECTRUM_COLUMNS = "kind,l,l0,power,theta,D,v,re_trchi,im_trchi,word"


@pytest.mark.parametrize("first,row", BAD_SPECTRA.values(), ids=BAD_SPECTRA.keys())
def test_zeta_rejects_malformed_spectrum(capsys, tmp_path, first, row):
    path = tmp_path / "rows.csv"
    text = "\n".join([first, SPECTRUM_COLUMNS, row, "hyperbolic,2.0,2.0,1,0.5,7.4,1,1.0,0.0,2"])
    # latin-1 writes the character \xff as the byte 0xff, which is not UTF-8
    path.write_bytes((text + "\n").encode("latin-1"))
    code, out, err = invoke(capsys, "zeta", "eval", "--spectrum", str(path), "--sigma", "1",
                            "--s-grid", "3:4:1")
    line = 3 if first == SPECTRUM_HEADER else 1
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} line {line}: ") and err.count("\n") == 1


@pytest.mark.parametrize("indices", ["2", "0.7", "-1", "x"])
def test_zeta_rejects_ambiguous_index_that_names_no_row(capsys, tmp_path, indices):
    path = tmp_path / "rows.csv"
    path.write_text("\n".join([SPECTRUM_HEADER, f"# ambiguous={indices}", SPECTRUM_COLUMNS,
                               "hyperbolic,1.0,1.0,1,0.5,1.3,1,1.0,0.0,1",
                               "hyperbolic,2.0,2.0,1,0.5,7.4,1,1.0,0.0,2"]) + "\n")
    code, out, err = invoke(capsys, "zeta", "eval", "--spectrum", str(path), "--sigma", "1",
                            "--s-grid", "3:4:1")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path} line 2: ") and err.count("\n") == 1


GOOD_ROW = "hyperbolic,2.0,2.0,1,0.5,7.4,1,1.0,0.0,2"
V_ZERO_ROW = "hyperbolic,1.0,1.0,1,0.5,1.3,0,1.0,0.0,1"
WORD_X_ROW = "hyperbolic,1.0,1.0,1,0.5,1.3,1,1.0,0.0,1.x"
POWER_HUGE_ROW = f"hyperbolic,1.0,1.0,{10**400},0.5,1.3,1,1.0,0.0,1"
V_NUL_ROW = "hyperbolic,1.0,1.0,1,0.5,1.3,2\x00,1.0,0.0,1"


def _rows(count: int, bad: dict) -> list[str]:
    """``count`` good hyperbolic rows with the rows of ``bad`` put in at their indices."""
    rows = [f"hyperbolic,{1.0 + i / 1000!r},1.0,1,0.5,1.3,1,1.0,0.0,{i + 1}" for i in range(count)]
    for i, row in bad.items():
        rows[i] = row
    return rows


#: name -> (the lines after the spectrum header, the error after "error: PATH ").  The
#: first seven give the code, message and line number of the row-by-row reader before
#: the spectrum became columns; the three overflow rows were a traceback or a silent
#: zero there, and the three elliptic rows whose l, l0 or power is not 0, 0 or 1 read.
SPECTRUM_ERRORS = {
    "first-of-two-bad-rows": ([SPECTRUM_COLUMNS, GOOD_ROW, V_ZERO_ROW, GOOD_ROW,
                               "hyperbolic,abc,1.0,1,0.5,1.3,1,1.0,0.0,1"],
                              "line 4: v must be positive"),
    "malformed-before-bad": ([SPECTRUM_COLUMNS, GOOD_ROW, WORD_X_ROW, V_ZERO_ROW],
                             f"line 4: malformed spectrum row {WORD_X_ROW!r}"),
    "far-apart": ([SPECTRUM_COLUMNS] + _rows(600, {300: WORD_X_ROW, 500: V_ZERO_ROW}),
                  f"line 303: malformed spectrum row {WORD_X_ROW!r}"),
    "far-apart-bad-first": (
        [SPECTRUM_COLUMNS] + _rows(600, {280: "hyperbolic,1.0,1.0,1,0.5,-1,1,1.0,0.0,1",
                                         290: WORD_X_ROW}),
        "line 283: a hyperbolic row needs finite positive l, l0 and D and power >= 1"),
    "power-1.5": ([SPECTRUM_COLUMNS, "hyperbolic,1.0,1.0,1.5,0.5,1.3,1,1.0,0.0,1"],
                  "line 3: malformed spectrum row 'hyperbolic,1.0,1.0,1.5,0.5,1.3,1,1.0,0.0,1'"),
    "word-1.x": ([SPECTRUM_COLUMNS, WORD_X_ROW], f"line 3: malformed spectrum row {WORD_X_ROW!r}"),
    "v-1/0": ([SPECTRUM_COLUMNS, "hyperbolic,1.0,1.0,1,0.5,1.3,1/0,1.0,0.0,1"],
              "line 3: malformed spectrum row 'hyperbolic,1.0,1.0,1,0.5,1.3,1/0,1.0,0.0,1'"),
    "elliptic-D-nan": ([SPECTRUM_COLUMNS, "elliptic,0,0,1,3.14,nan,1,1.0,0.0,-1"],
                       "line 3: an elliptic row needs an empty D"),
    "blank-line": ([SPECTRUM_COLUMNS, GOOD_ROW, "", "hyperbolic,1.0,1.0,1,0.5,1.3,-2,1.0,0.0,1"],
                   "line 5: v must be positive"),
    "ambiguous-index-row-count": (["# ambiguous=0.2", SPECTRUM_COLUMNS, GOOD_ROW, GOOD_ROW],
                                  "line 2: ambiguous index 2 names no row"),
    "v-1e400": ([SPECTRUM_COLUMNS, "hyperbolic,1.0,1.0,1,0.5,1.3,1e400,1.0,0.0,1"],
                "line 3: v is too large for a float"),
    "v-1e-400": ([SPECTRUM_COLUMNS, "hyperbolic,1.0,1.0,1,0.5,1.3,1e-400,1.0,0.0,1"],
                 "line 3: v must be positive"),
    "power-1e400": ([SPECTRUM_COLUMNS, POWER_HUGE_ROW],
                    f"line 3: malformed spectrum row {POWER_HUGE_ROW!r}"),
    "elliptic-l-nan": ([SPECTRUM_COLUMNS, GOOD_ROW, "elliptic,nan,0,1,3.14,,1,1.0,0.0,-1"],
                       "line 4: an elliptic row needs l = l0 = 0 and power = 1"),
    "elliptic-l0-negative": ([SPECTRUM_COLUMNS, "elliptic,0,-3,1,3.14,,1,1.0,0.0,-1"],
                             "line 3: an elliptic row needs l = l0 = 0 and power = 1"),
    "elliptic-power-0": ([SPECTRUM_COLUMNS, "elliptic,0,0,0,3.14,,1,1.0,0.0,-1"],
                         "line 3: an elliptic row needs l = l0 = 0 and power = 1"),
    # a row that breaks several rules gets the message of the first in precedence order
    "elliptic-D-and-l": ([SPECTRUM_COLUMNS, "elliptic,1,0,1,3.14,1.3,1,1.0,0.0,-1"],
                         "line 3: an elliptic row needs an empty D"),
    "angle-nan-and-D-negative": ([SPECTRUM_COLUMNS, "hyperbolic,1.0,1.0,1,nan,-1,1,1.0,0.0,1"],
                                 "line 3: a row needs finite angles and tr chi"),
    "D-negative-and-v-zero": ([SPECTRUM_COLUMNS, "hyperbolic,1.0,1.0,1,0.5,-1,0,1.0,0.0,1"],
                              "line 3: a hyperbolic row needs finite positive l, l0 and D and power >= 1"),
    # a trailing NUL is part of the field, as in every other column
    "v-trailing-nul": ([SPECTRUM_COLUMNS, GOOD_ROW, V_NUL_ROW],
                       f"line 4: malformed spectrum row {V_NUL_ROW!r}"),
    "kind-trailing-nul": ([SPECTRUM_COLUMNS, "hyperbolic\x00,1.0,1.0,1,0.5,1.3,1,1.0,0.0,1"],
                          "line 3: unknown class kind 'hyperbolic\\x00'"),
}


@pytest.mark.parametrize("lines,error", SPECTRUM_ERRORS.values(), ids=SPECTRUM_ERRORS.keys())
def test_spectrum_error_names_the_first_bad_line(capsys, tmp_path, lines, error):
    path = tmp_path / "rows.csv"
    path.write_text("\n".join([SPECTRUM_HEADER] + lines) + "\n")
    code, out, err = invoke(capsys, "zeta", "eval", "--spectrum", str(path), "--sigma", "1",
                            "--s-grid", "3:4:1")
    assert (code, out, err) == (2, "", f"error: {path} {error}\n")


@pytest.mark.parametrize("row,length", [("hyperbolic,800,800,1,0.5,1e300,1,1.0,0.0,7", "800"),
                                        ("hyperbolic,400,400,1,0.5,1e300,1,1.0,0.0,7", "400")],
                         ids=["exp-overflows", "product-overflows"])
@pytest.mark.parametrize("op", [("eval", "--s-grid", "3:4:1"), ("xi", "--s", "3"),
                                ("heat-terms", "--t", "0.5")], ids=lambda op: op[0])
def test_overflowing_adjoint_determinant_is_a_numerical_guard(capsys, tmp_path, row, length, op):
    """The zeta sums divide by the adjoint determinant and stop; the heat
    terms never form it, and the long class's term e^{-l^2/4t} is 0."""
    path, short = tmp_path / "rows.csv", tmp_path / "short.csv"
    path.write_text("\n".join([SPECTRUM_HEADER, SPECTRUM_COLUMNS, GOOD_ROW, row]) + "\n")
    short.write_text("\n".join([SPECTRUM_HEADER, SPECTRUM_COLUMNS, GOOD_ROW]) + "\n")
    code, out, err = invoke(capsys, "zeta", *op[:1], "--spectrum", str(path), "--sigma", "1",
                            *op[1:])
    if op[0] == "heat-terms":
        want = invoke(capsys, "zeta", *op[:1], "--spectrum", str(short), "--sigma", "1", *op[1:])
        assert (code, out, err) == want and code == 0
        return
    assert (code, out) == (3, "")
    assert err == ("numerical guard: adjoint determinant overflows for the hyperbolic class "
                   f"of length {length} and word 7\n")


@pytest.mark.parametrize("op,point", [(("eval", "--s-grid=-800:-800:1"), "(-800+0j)"),
                                      (("eval", "--s-grid=-250:-250:1,1:1:1"), "(-250+1j)"),
                                      (("xi", "--s=-800"), "(-800+0j)")],
                         ids=["eval-real", "eval-complex", "xi"])
def test_overflowing_exponential_row_is_a_numerical_guard(capsys, tmp_path, op, point):
    """Where e^{-(s+n) l} overflows for the longest classes, log Z is not
    finite: one guard line and exit 3, with no numpy warning, rather than
    nan printed with exit 0."""
    spec = tmp_path / "small.csv"
    spec.write_text(small_h3_spectrum_csv())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would raise here
        code, out, err = invoke(capsys, "zeta", op[0], "--spectrum", str(spec), "--sigma", "1",
                                "--elliptic-vols", "0.5,0.75", *op[1:])
    assert (code, out, err) == (3, "", f"numerical guard: log Z is not finite at s = {point}\n")


@pytest.mark.parametrize("t", ["1e-300", "1e-310", "5e-324"])
def test_heat_terms_at_a_tiny_time_are_a_numerical_guard(capsys, tmp_path, t):
    """t^{-(k + 1/2)} overflows in the Gaussian transforms of the identity
    and elliptic terms: one guard line naming t and exit 3, not a
    traceback.  At t = 1e-10 the terms are finite and print as before."""
    spec = tmp_path / "small.csv"
    spec.write_text(small_h3_spectrum_csv())
    args = ("zeta", "heat-terms", "--spectrum", str(spec), "--sigma", "0",
            "--elliptic-vols", "0.5,0.75")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = invoke(capsys, *args, f"--t={t}")
    assert got == (3, "", f"numerical guard: heat terms are not finite at t = {t}\n")
    assert invoke(capsys, *args, "--t=1e-10") == (
        0, "t,re_I,im_I,re_E,im_E,re_H,im_H\n"
        "1e-10,22448390265645.824,0,0,155089.71195423265,0,0\n", "")


def test_terms_overflowing_with_opposite_signs_are_a_numerical_guard(capsys, tmp_path):
    """Two classes whose terms overflow to +inf and -inf: math.fsum raises
    ValueError on them, which is a numerical guard, not a traceback."""
    spec = tmp_path / "rows.csv"
    spec.write_text("\n".join([SPECTRUM_HEADER, SPECTRUM_COLUMNS,
                               "hyperbolic,0.1,0.1,1,0.5,1e-310,1,1e10,0.0,1",
                               "hyperbolic,0.2,0.2,1,0.5,1e-310,1,-1e10,0.0,2"]) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = invoke(capsys, "zeta", "eval", "--spectrum", str(spec), "--sigma", "1",
                                "--s-grid", "3:3:1")
    assert (code, out, err) == (3, "", "numerical guard: log Z is not finite at s = (3+0j)\n")


def test_log_zeta_truncated_refuses_a_value_that_is_not_finite(tmp_path):
    spec = tmp_path / "small.csv"
    spec.write_text(small_h3_spectrum_csv())
    ctx = ZetaTermContext(sigma=WeightVector((1,)), chi_dim=1,
                          spectrum=LengthSpectrum.read_csv(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (-800.0, complex(-250.0, 1.0), [3.0, -800.0]):
            with pytest.raises(NumericalGuardError, match="log Z is not finite at s = "):
                log_zeta_truncated(s, ctx)


def test_zeta_ops_build_no_object_per_class(capsys, monkeypatch, tmp_path):
    """The zeta ops read the spectrum's columns: of ConjClassRecord and
    EllipticAngles they build only the angles of the elliptic classes."""
    built = Counter()
    for cls in (ConjClassRecord, EllipticAngles):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    spec = tmp_path / "spec.csv"
    spec.write_text(small_h3_spectrum_csv(classes=200))  # and 2 elliptic classes
    assert len(LengthSpectrum.read_csv(spec).records) == built["ConjClassRecord"] == 202
    common = ("--spectrum", str(spec), "--sigma", "1", "--elliptic-vols", "0.5,0.25")
    for op in (("eval", "--s-grid", "3:4:0.5"), ("xi", "--s", "3,3.5"), ("heat-terms", "--t", "0.5,1")):
        built.clear()
        assert invoke(capsys, "zeta", *op[:1], *common, *op[1:])[0] == 0
        assert built["ConjClassRecord"] == 0 and built["EllipticAngles"] <= 2


# argv whose run fails with exit 2 in a library check, then one valid argv per group
VALIDATE_ARGV = {
    "enumerate-cutoff-negative": ("spectrum", "enumerate", "--group", "{group}",
                                  "--max-word-len", "3", "--cutoff", "-1"),
    "enumerate-word-len-40": ("spectrum", "enumerate", "--group", "{group}",
                              "--max-word-len", "40", "--cutoff", "5"),
    "enumerate-element-cap-0": ("spectrum", "enumerate", "--group", "{group}",
                                "--max-word-len", "3", "--cutoff", "5", "--element-cap", "0"),
    "character-non-dominant": ("lie", "character", "--weight", "0,1", "--angles", "0.1,0.5"),
    "poly-rank-mismatch": ("orbital", "poly", "--n", "3", "--sigma", "1,0", "--angles", "0.1,0.5"),
    "fit-grid-outside-window": ("heat", "fit", "--model", "circle", "--t-grid", "0.5,0.6,0.7"),
    "delta-m-rank-0": ("lie", "delta-m", "--n", "0"),
    "plancherel-not-dominant": ("orbital", "plancherel", "--sigma", "0,1"),
    "lie-ok": ("lie", "delta-m", "--n", "3"),
    "orbital-ok": ("orbital", "plancherel", "--sigma", "1"),
    "spectrum-ok": ("spectrum", "classify", "--group", "{group}", "--word", "1"),
    "zeta-ok": ("zeta", "xi", "--spectrum", "{spec}", "--sigma", "1", "--s", "3",
                "--elliptic-vols", "0.5,0.75"),
    "heat-ok": ("heat", "trace", "--model", "circle", "--t", "1"),
}


@pytest.mark.parametrize("name,argv", VALIDATE_ARGV.items(), ids=VALIDATE_ARGV.keys())
def test_validate_exits_as_the_run_does(capsys, group_file, tmp_path, name, argv):
    spec = tmp_path / "small.csv"
    spec.write_text(small_h3_spectrum_csv())
    argv = [a.format(group=group_file, spec=spec) for a in argv]
    code, _, err = invoke(capsys, *argv)
    assert code == (0 if name.endswith("-ok") else 2)
    assert invoke(capsys, *argv, "--validate") == (code, "ok\n" if code == 0 else "", err)


def ambiguous_elliptic_spectrum(tmp_path) -> str:
    """The small H^3 spectrum with its first row, an elliptic class, flagged."""
    first, *rest = small_h3_spectrum_csv().splitlines()
    path = tmp_path / "flagged.csv"
    path.write_text("\n".join([first, "# ambiguous=0", *rest]) + "\n")
    return str(path)


@pytest.mark.parametrize("op,point,code", [
    ("xi", ("--s", "3"), 3), ("heat-terms", ("--t", "0.5"), 3), ("eval", ("--s-grid", "3:4:1"), 0),
])
def test_zeta_refuses_a_flagged_elliptic_class_it_sums(capsys, tmp_path, op, point, code):
    argv = ("zeta", op, "--spectrum", ambiguous_elliptic_spectrum(tmp_path), "--sigma", "1",
            "--elliptic-vols", "0.5,0.75", *point)
    got, out, err = invoke(capsys, *argv)
    assert got == code  # log Z sums no elliptic class
    if code:
        assert out == "" and "ambig" in err.lower()
        assert invoke(capsys, *argv, "--allow-ambiguous")[0] == 0


@pytest.mark.parametrize("vol", ["-1", "inf", "nan", "0"])
def test_zeta_rejects_a_bad_centralizer_volume(capsys, tmp_path, vol):
    spec = tmp_path / "small.csv"
    spec.write_text(small_h3_spectrum_csv())
    code, out, err = invoke(capsys, "zeta", "heat-terms", "--spectrum", str(spec), "--sigma", "1",
                            "--t", "0.5", "--elliptic-vols", f"0.5,{vol}")
    assert (code, out) == (2, "")
    assert err == "error: centralizer volumes must be finite and positive\n"


BAD_CLI_INPUTS = {
    "missing-spectrum": ("zeta", "xi", "--spectrum", "{tmp}/none.csv", "--sigma", "1", "--s", "3"),
    "missing-group": ("spectrum", "classify", "--group", "{tmp}/none.json", "--word", "1"),
    "missing-config": ("lie", "delta-m", "--n", "2", "--config", "{tmp}/none.json"),
    "out-in-missing-dir": ("lie", "delta-m", "--n", "2", "--out", "{tmp}/no/such/out.txt"),
    "group-bad-json": ("spectrum", "classify", "--group", "{bad_json}", "--word", "1"),
    "config-bad-json": ("lie", "delta-m", "--n", "2", "--config", "{bad_json}"),
    "xi-s-text": ("zeta", "xi", "--spectrum", "{spec}", "--sigma", "1", "--s", "abc"),
    "heat-terms-t-text": ("zeta", "heat-terms", "--spectrum", "{spec}", "--sigma", "1",
                          "--t", "1,x"),
    "elliptic-vols-text": ("zeta", "xi", "--spectrum", "{spec}", "--sigma", "1", "--s", "3",
                           "--elliptic-vols", "a,b,c,d"),
    "sides-text": ("heat", "fit", "--model", "pillowcase", "--sides", "a,b"),
    "s-grid-text": ("zeta", "eval", "--spectrum", "{spec}", "--sigma", "1", "--s-grid", "a:b:c"),
    "word-text": ("spectrum", "classify", "--group", "{group}", "--word", "a"),
    "s-grid-two-fields": ("zeta", "eval", "--spectrum", "{spec}", "--sigma", "1",
                          "--s-grid", "1:2"),
    "s-grid-step-0": ("zeta", "eval", "--spectrum", "{spec}", "--sigma", "1", "--s-grid", "1:2:0"),
    "s-grid-three-axes": ("zeta", "eval", "--spectrum", "{spec}", "--sigma", "1",
                          "--s-grid", "1:2:1,0:1:1,0:1:1"),
    "config-list": ("lie", "delta-m", "--n", "2", "--config", "{tmp}/list.json"),
    "group-model-h4": ("spectrum", "classify", "--group", "{tmp}/h4.json", "--word", "1"),
    "group-3x3": ("spectrum", "classify", "--group", "{tmp}/3x3.json", "--word", "1"),
    "group-real-complex": ("spectrum", "classify", "--group", "{tmp}/complex.json", "--word", "1"),
    "group-two-chi": ("spectrum", "classify", "--group", "{tmp}/two-chi.json", "--word", "1"),
    "group-not-square": ("spectrum", "classify", "--group", "{tmp}/row.json", "--word", "1"),
    "word-letter-3": ("spectrum", "classify", "--group", "{tmp}/two.json", "--word", "3"),
    "spectrum-no-header": ("zeta", "xi", "--spectrum", "{tmp}/no-header.csv", "--sigma", "1",
                           "--s", "3"),
    "spectrum-bad-columns": ("zeta", "xi", "--spectrum", "{tmp}/bad-columns.csv", "--sigma", "1",
                             "--s", "3"),
    "weight-zero-denominator": ("lie", "character", "--weight", "1/0", "--angles", "0.5"),
    "angles-zero-denominator": ("lie", "character", "--weight", "1", "--angles", "pi/0"),
    "xi-rank-mismatch": ("lie", "character", "--xi", "--weight", "1,0", "--angles", "0.5"),
    "xi-s-empty": ("zeta", "xi", "--spectrum", "{spec}", "--sigma", "1", "--s", ""),
    "heat-terms-t-empty": ("zeta", "heat-terms", "--spectrum", "{spec}", "--sigma", "1",
                           "--t", ""),
    "heat-trace-t-commas": ("heat", "trace", "--model", "circle", "--t", ","),
    "poly-n-above-rank": ("orbital", "poly", "--n", "3", "--sigma", "1,0", "--angles", "0.1,0.2"),
    "poly-angles-below-rank": ("orbital", "poly", "--n", "2", "--sigma", "1,0", "--angles", "0.1"),
    "gap-n-below-rank": ("orbital", "gap", "--n", "2", "--sigma", "1,0,0",
                         "--angles", "0.1,0.2,0.3"),
}

#: the files that BAD_CLI_INPUTS names under {tmp}
BAD_CLI_FILES = {
    "list.json": "[1]",
    "h4.json": json.dumps({"model": "H4", "generators": [[[1, 0], [0, 1]]]}),
    "3x3.json": json.dumps({"model": "H3-complex-2x2",
                            "generators": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}),
    "complex.json": json.dumps({"model": "H2-real-2x2", "generators": [[[1, [0, 1e-3]], [0, 1]]]}),
    "two-chi.json": json.dumps({"model": "H3-complex-2x2", "generators": [[[1, 0], [0, 1]]],
                                "chi": [[[1]], [[1]]]}),
    "row.json": json.dumps({"model": "H3-complex-2x2", "generators": [[[2, 0, 0]]]}),
    "two.json": json.dumps({"model": "H3-complex-2x2",
                            "generators": [[[1, 0], [0, 1]], [[1, 0], [0, 1]]]}),
    "no-header.csv": "kind,l,l0,power,theta,D,v,re_trchi,im_trchi,word\n",
    "bad-columns.csv": "# selberg-spectrum spec_hash=x cutoff=1 max_word_len=1\nkind,l\n",
}

#: the guard each of these BAD_CLI_INPUTS trips, as its message names it
BAD_CLI_GUARDS = {
    "s-grid-two-fields": "grid axis '1:2' is not start:stop:step",
    "s-grid-step-0": "grid bounds must be finite and the step positive",
    "s-grid-three-axes": "grid must be one or two start:stop:step triples",
    "config-list": "config file must hold a JSON object",
    "group-model-h4": "unknown model 'H4'; ",
    "group-3x3": "generators must be 2x2 matrices",
    "group-real-complex": "real model requires real generator entries",
    "group-two-chi": "chi must give one matrix per generator",
    "group-not-square": "matrix data is not square",
    "word-letter-3": "word letter 3 out of range",
    "spectrum-no-header": "is not a length-spectrum file",
    "spectrum-bad-columns": "line 2: unexpected length-spectrum header",
    "weight-zero-denominator": "malformed weight string: '1/0'",
    "angles-zero-denominator": "zero denominator in angle 'pi/0'",
    "xi-rank-mismatch": "rank mismatch between weight and angles",
    "xi-s-empty": "--s needs at least one value",
    "heat-terms-t-empty": "--t needs at least one value",
    "heat-trace-t-commas": "--t needs at least one value",
    "poly-n-above-rank": "weight, angles and rank must agree",
    "poly-angles-below-rank": "weight, angles and rank must agree",
    "gap-n-below-rank": "weight, angles and rank must agree",
}


@pytest.mark.parametrize("name,argv", BAD_CLI_INPUTS.items(), ids=BAD_CLI_INPUTS.keys())
def test_malformed_input_exits_2_with_one_line(capsys, group_file, tmp_path, name, argv):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"n": 3,')
    spec = tmp_path / "small.csv"
    spec.write_text(small_h3_spectrum_csv())
    for file, text in BAD_CLI_FILES.items():
        (tmp_path / file).write_text(text)
    names = {"tmp": tmp_path, "bad_json": bad_json, "spec": spec, "group": group_file}
    code, out, err = invoke(capsys, *(a.format(**names) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1  # one line, no traceback
    assert BAD_CLI_GUARDS.get(name, "") in err


def test_an_empty_config_is_no_config(capsys):
    """``--config=`` names no file, so the run reads none."""
    want = invoke(capsys, "lie", "delta-m", "--n", "2")
    assert want[0] == 0
    assert invoke(capsys, "lie", "delta-m", "--n", "2", "--config=") == want


@pytest.mark.parametrize("config", [{"vol": "2"}, {"chi-dim": 2.5}, {"func": 1}],
                         ids=["vol-string", "chi-dim-fraction", "func"])
def test_config_values_go_through_the_parser(capsys, tmp_path, config):
    spec = tmp_path / "small.csv"
    spec.write_text(small_h3_spectrum_csv())
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code = exit_code(["zeta", "xi", "--spectrum", str(spec), "--sigma", "1", "--s", "3",
                      "--config", str(cfg)])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_config_flag_and_value_tokens(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"count": False, "n": 2}))
    code, out, _ = invoke(capsys, "lie", "weyl", "--n", "3", "--config", str(cfg))
    assert code == 0 and len(out.splitlines()) == 24  # false leaves --count out
    cfg.write_text(json.dumps({"vol": 1.5, "elliptic-vols": "0.5,0.75", "sigma": 0}))
    spec = tmp_path / "small.csv"
    spec.write_text(small_h3_spectrum_csv())
    code, out, _ = invoke(capsys, "zeta", "xi", "--spectrum", str(spec), "--sigma", "1",
                          "--s", "3,3.5,5", "--config", str(cfg))
    assert code == 0 and out == FROZEN["zeta"]["xi sigma=1"]


@pytest.mark.parametrize("argv", [
    ("lie", "character", "--weight", "1", "--angles", "nan"),
    ("orbital", "poly", "--n", "1", "--sigma", "1", "--angles", "inf"),
    ("orbital", "gap", "--n", "2", "--sigma", "1,1", "--angles", "nan,1"),
], ids=["character-nan", "poly-inf", "gap-nan"])
def test_non_finite_angle_exits_2(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1


def _cutoff_files(tmp_path) -> tuple[Path, Path]:
    """``small_h3_spectrum_csv``, and the same file holding only the rows
    with l <= 2 and the header cutoff 2."""
    full = tmp_path / "full.csv"
    full.write_text(small_h3_spectrum_csv())
    head, columns, *rows = full.read_text().splitlines()
    kept = [r for r in rows if r.startswith("elliptic") or float(r.split(",")[1]) <= 2.0]
    assert 0 < len(kept) - 2 < len(rows) - 2  # the cutoff drops some hyperbolic rows
    cut = tmp_path / "cut.csv"
    cut.write_text("\n".join([head.replace("cutoff=4", "cutoff=2"), columns] + kept) + "\n")
    return full, cut


def test_zeta_eval_cutoff_equals_a_truncated_file(capsys, tmp_path):
    full, cut = _cutoff_files(tmp_path)
    args = ("zeta", "eval", "--sigma", "1", "--s-grid", "3:5:0.5,0:1:1")
    want = invoke(capsys, *args, "--spectrum", str(cut))
    assert want[0] == 0
    assert invoke(capsys, *args, "--spectrum", str(full), "--cutoff", "2") == want
    for bad in ("nan", "-1"):
        code, out, err = invoke(capsys, *args, "--spectrum", str(full), "--cutoff", bad)
        assert (code, out) == (2, "")
        assert err == "error: cutoff must be finite and positive\n"


@pytest.mark.parametrize("op", [("xi", "--s", "3,3.5,4.25"), ("heat-terms", "--t", "0.2,1,3")],
                         ids=lambda op: op[0])
def test_zeta_cutoff_equals_a_truncated_file(capsys, tmp_path, op):
    full, cut = _cutoff_files(tmp_path)
    args = ("zeta", op[0], "--sigma", "1", "--elliptic-vols", "0.5,0.25", *op[1:])
    want = invoke(capsys, *args, "--spectrum", str(cut))
    assert want[0] == 0 and want[1].count("\n") == 4
    assert invoke(capsys, *args, "--spectrum", str(full), "--cutoff", "2") == want


@pytest.mark.parametrize("sigma,angles", [("1,1", "0.4,2.1"), ("5/2,3/2,1/2", "0.7,1.3,2.9")])
def test_orbital_gap_is_the_largest_coefficient_difference(capsys, sigma, angles):
    n = str(sigma.count(",") + 1)
    flip = sigma.rsplit(",", 1)[0] + ",-" + sigma.rsplit(",", 1)[1]

    def coeffs(weight):
        code, out, _ = invoke(capsys, "orbital", "poly", "--n", n, "--sigma", weight,
                              "--angles", angles)
        assert code == 0
        return [complex(x.strip("()")) for x in out.strip().split(",")]

    p, q = coeffs(sigma), coeffs(flip)
    width = max(len(p), len(q))
    p, q = p + [0j] * (width - len(p)), q + [0j] * (width - len(q))
    code, out, _ = invoke(capsys, "orbital", "gap", "--n", n, "--sigma", sigma, "--angles", angles)
    assert code == 0
    gap = float(out)
    assert gap > 0 and gap == max(abs(a - b) for a, b in zip(p, q))
