"""Seeded inputs and op lists for the benchmark's workloads.

An op is one ``selberg.cli.run(argv)`` call on files written here, plus the
oracle check for its printed output.  ``build`` only writes inputs and
returns ops; every check computes its reference lazily, so the oracle's cost
stays out of set-up and out of the timed calls.

Workloads (README.md gives the reason for each):

spectrum-free      ``spectrum enumerate`` at word length 6 on a seeded,
                   conjugated two-generator Schottky group.  The conjugator
                   search in ``geometry.conjugacy_reduce`` dominates.  The
                   group is free, so the classes have an exact oracle.
spectrum-triangle  ``spectrum enumerate`` at word length 14 on four cocompact
                   triangle groups.  Relations make most products duplicates,
                   so dedup, collision checks and classification dominate.
spectral-zeta      ``zeta eval|xi|heat-terms`` on a synthetic 2000-class H^3
                   spectrum: rank-1 characters per class and point.
spectral-weyl      ``lie character`` and ``orbital poly`` at n = 3..6 and the
                   flat ``heat`` models: Weyl sums over W(D_n).

The input sizes do not depend on the seed, so neither does the work.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

TRIANGLES = ((2, 3, 7), (2, 3, 8), (2, 3, 9), (2, 4, 5))
#: length of the shortest closed geodesic on the (2,3,7) orbifold
SYSTOLE_237 = 0.983987


@dataclass(frozen=True)
class Sizes:
    free_len: int = 6
    triangle_len: int = 14
    ranks: tuple = (3, 4, 5, 6)
    classes: int = 2000
    grid_points: int = 101
    xi_points: int = 20
    heat_times: int = 20
    rmax: float = 1e6


#: the sizes of the smoke test
TINY = Sizes(free_len=3, triangle_len=6, ranks=(3, 4), classes=60, grid_points=5,
             xi_points=3, heat_times=3, rmax=1e4)


@dataclass
class Op:
    name: str
    argv: list
    check: Callable[[str], "str | None"]


def _f(x: float) -> str:
    return repr(float(x))


def _rotation(a: float) -> np.ndarray:
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


def _conjugator(rng) -> np.ndarray:
    """Seeded SL(2,R) element: rotation, boost of up to 1 unit, rotation."""
    tau = rng.uniform(0.0, 1.0)
    boost = np.diag([math.exp(tau / 2.0), math.exp(-tau / 2.0)])
    return _rotation(rng.uniform(0.0, 2.0 * math.pi)) @ boost @ _rotation(
        rng.uniform(0.0, 2.0 * math.pi)
    )


def _conjugate(gens, c) -> list:
    cinv = np.linalg.inv(c)
    return [c @ g @ cinv for g in gens]


def _write_group(path: Path, gens, name: str) -> list:
    """Write a group-spec JSON file; returns the generators as float tuples."""
    rows = [[[float(x) for x in row] for row in g] for g in gens]
    path.write_text(json.dumps({"model": "H2-real-2x2", "generators": rows, "name": name}))
    return [tuple(tuple(row) for row in g) for g in rows]


def schottky_generators(lam: float) -> list:
    """diag(lam, 1/lam) and its conjugate by a quarter-turn about i."""
    a = np.diag([lam, 1.0 / lam])
    r = _rotation(math.pi / 4.0)
    return [a, r @ a @ np.linalg.inv(r)]


def triangle_generators(p: int, q: int, r: int) -> list:
    """Rotations x (order p, about i) and y (order q, at distance d up the
    imaginary axis) with xy of order r:
    cosh d = (cos pi/r + cos pi/p cos pi/q) / (sin pi/p sin pi/q)."""
    cosh_d = (math.cos(math.pi / r) + math.cos(math.pi / p) * math.cos(math.pi / q)) / (
        math.sin(math.pi / p) * math.sin(math.pi / q)
    )
    e = math.exp(math.acosh(cosh_d) / 2.0)
    t = np.diag([e, 1.0 / e])
    x = _rotation(-math.pi / p)
    y = t @ _rotation(-math.pi / q) @ np.linalg.inv(t)
    return [x, y]


# ---------------------------------------------------------------------------


def _spectrum_free(rng, work: Path, sizes: Sizes, run_cli=None):
    lam = rng.uniform(2.6, 4.0)  # ping-pong needs lam > 1 + sqrt(2)
    gens = _write_group(
        work / "free.json", _conjugate(schottky_generators(lam), _conjugator(rng)), "schottky"
    )
    cutoff = _f(4.0 * sizes.free_len * math.log(lam) + 1.0)
    argv = ["spectrum", "enumerate", "--group", str(work / "free.json"),
            "--max-word-len", str(sizes.free_len), "--cutoff", cutoff]
    ops = [Op("enumerate-free", argv,
              lambda text: oracles.check_free_spectrum(text, gens, sizes.free_len))]
    warm = [argv[:4] + ["--max-word-len", "1", "--cutoff", cutoff]]
    return ops, warm


def _spectrum_triangle(rng, work: Path, sizes: Sizes, run_cli):
    ops, warm = [], []
    for pqr in TRIANGLES:
        tag = "-".join(map(str, pqr))
        plain = triangle_generators(*pqr)
        gens = _write_group(work / f"tri-{tag}.json", _conjugate(plain, _conjugator(rng)), tag)
        _write_group(work / f"tri-{tag}-plain.json", plain, tag)
        tail = ["--max-word-len", str(sizes.triangle_len), "--cutoff", "100"]
        argv = ["spectrum", "enumerate", "--group", str(work / f"tri-{tag}.json")] + tail
        plain_argv = ["spectrum", "enumerate", "--group", str(work / f"tri-{tag}-plain.json")] + tail

        def check(text, gens=gens, pqr=pqr, plain_argv=plain_argv):
            # the unconjugated group's spectrum is the reference multiset
            ref = oracles.parse_spectrum(run_cli(plain_argv))
            lengths = sorted(r["l"] for r in ref if r["kind"] == "hyperbolic")
            systole = SYSTOLE_237 if pqr == (2, 3, 7) else None
            return oracles.check_triangle_spectrum(text, gens, pqr, lengths, systole)

        ops.append(Op(f"enumerate-{tag}", argv, check))
        warm.append(argv[:4] + ["--max-word-len", "1", "--cutoff", "100"])
    return ops, warm


def _lengths(rng, n: int, h: float) -> np.ndarray:
    """n lengths whose counting function grows like e^{h l}/(h l) (prime
    geodesic theorem), by stratified inverse-CDF sampling of e^{h l}/l."""
    lo = rng.uniform(0.5, 0.8)
    hi = lo + 1.0
    while math.exp(h * hi) / (h * hi) < n:
        hi += 0.01
    grid = np.linspace(lo, hi, 20001)
    dens = np.exp(h * grid) / grid
    cdf = np.concatenate(([0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0)))
    u = (np.arange(n) + rng.uniform(0.0, 1.0, n)) / n * cdf[-1]
    return np.interp(u, cdf, grid)


def _dominant(rng, n: int) -> tuple:
    base = sorted((int(x) for x in rng.integers(0, 5, n)), reverse=True)
    if rng.random() < 0.5:
        base[-1] = -base[-1]
    return tuple(base)


def _regular_angles(rng, n: int) -> list:
    """Angles in (0, pi) with distinct cosines, one per cell of width pi/n."""
    return [math.pi * (i + 0.2 + 0.6 * rng.random()) / n for i in range(n)]


def _spectral_zeta(rng, work: Path, sizes: Sizes, run_cli=None):
    h = rng.uniform(1.6, 2.0)
    kappa = rng.uniform(0.2, 0.5)
    amp = rng.uniform(0.5, 2.0)
    n = sizes.classes
    length = np.sort(_lengths(rng, n, h))
    power = np.where(rng.random(n) < 0.1, rng.integers(2, 4, n), 1)
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    v_text = rng.choice(["1", "1", "1", "1", "1", "1", "1", "1", "2", "1/2"], n)
    trchi = amp * np.exp(kappa * length + 1j * rng.uniform(0.0, 2.0 * math.pi, n))
    D = 2.0 * (np.cosh(length) - np.cos(theta))  # prod_j 4|sinh((l + i theta_j)/2)|^2, n = 1
    seed_tag = int(rng.integers(1 << 30))
    ell_theta = np.array([math.pi, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0, math.pi / 2.0])
    ell_trchi = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 4)) * rng.uniform(0.5, 1.5, 4)
    vols = [float(f"{x:.6f}") for x in rng.uniform(0.1, 1.0, 4)]
    vol = float(f"{rng.uniform(0.5, 2.0):.6f}")  # keeps xi clear of underflow on the grid

    lines = [f"# selberg-spectrum spec_hash=synthetic{seed_tag:x} "
             f"cutoff={math.ceil(length[-1]) + 1} max_word_len=0 model=H3-complex-2x2",
             "kind,l,l0,power,theta,D,v,re_trchi,im_trchi,word"]
    for j, (th, tc) in enumerate(zip(ell_theta.tolist(), ell_trchi.tolist())):
        lines.append(f"elliptic,0,0,1,{th!r},,1,{tc.real!r},{tc.imag!r},{-(j + 1)}")
    for i, (l, m, th, d, v, tc) in enumerate(
        zip(length.tolist(), power.tolist(), theta.tolist(), D.tolist(), v_text.tolist(),
            trchi.tolist())
    ):
        lines.append(f"hyperbolic,{l!r},{l / m!r},{m},{th!r},{d!r},{v},{tc.real!r},{tc.imag!r},{i + 1}")
    spec = work / "synthetic.csv"
    spec.write_text("\n".join(lines) + "\n")
    # columns as the CSV round-trips them, for the oracle
    recs = {"l": length, "l0": length / power, "power": power.astype(float), "theta": theta,
            "D": D, "v": np.array([float(Fraction(v)) for v in v_text]), "trchi": trchi}
    ell = {"theta": ell_theta, "trchi": ell_trchi}

    k = 1.0
    common = ["--spectrum", str(spec), "--sigma", "1", "--vol", _f(vol),
              "--elliptic-vols", ",".join(map(_f, vols))]
    start = round(h + kappa + 1.0, 2)  # right of the abscissa h + kappa
    step = 5.0 / (sizes.grid_points - 1)
    s_values = [float(f"{x:.6f}") for x in np.linspace(start, start + 5.0, sizes.xi_points)]
    t_values = [float(f"{x:.6g}") for x in np.geomspace(0.05, 5.0, sizes.heat_times)]
    ops = [
        Op("zeta-eval",
           ["zeta", "eval"] + common + ["--s-grid", f"{start}:{start + 5.0}:{step}"],
           lambda text: oracles.check_zeta_eval(text, recs, k, sizes.grid_points)),
        Op("zeta-xi", ["zeta", "xi"] + common + ["--s", ",".join(map(_f, s_values))],
           lambda text: oracles.check_zeta_xi(text, recs, ell, k, vol, vols, s_values)),
        Op("zeta-heat-terms",
           ["zeta", "heat-terms"] + common + ["--t", ",".join(map(_f, t_values))],
           lambda text: oracles.check_heat_terms(text, recs, ell, k, vol, vols, t_values)),
    ]
    warm = [["zeta", "eval"] + common + ["--s-grid", f"{start}:{start}:1"]]
    return ops, warm


def _spectral_weyl(rng, work: Path, sizes: Sizes, run_cli=None):
    ops = []
    for r in sizes.ranks:
        weight, angles = _dominant(rng, r), _regular_angles(rng, r)
        ops.append(Op(
            f"lie-character-n{r}",
            ["lie", "character", "--weight", ",".join(map(str, weight)),
             "--angles", ",".join(map(_f, angles))],
            lambda text, w=weight, a=angles: oracles.check_character(text, w, a)))
    for r in sizes.ranks:
        weight, angles = _dominant(rng, r), _regular_angles(rng, r)
        zeros = 1 if r % 2 else 2  # fixed per rank, so the work does not depend on the seed
        for slot in rng.choice(r, zeros, replace=False):
            angles[slot] = 0.0
        ops.append(Op(
            f"orbital-poly-n{r}",
            ["orbital", "poly", "--n", str(r), "--sigma", ",".join(map(str, weight)),
             "--angles", ",".join(map(_f, angles))],
            lambda text, w=weight, a=angles: oracles.check_orbital(text, w, a, (0.3, 1.1, 2.7))))
    square = (2.0 * math.pi, 2.0 * math.pi)
    sides = tuple(float(f"{x:.6f}") for x in rng.uniform(5.0, 8.0, 2))
    ops += [
        Op("heat-weyl", ["heat", "weyl", "--model", "pillowcase", "--rmax", _f(sizes.rmax)],
           lambda text: oracles.check_heat_weyl(text, square, sizes.rmax)),
        Op("heat-fit", ["heat", "fit", "--model", "pillowcase", "--sides", ",".join(map(_f, sides))],
           lambda text: oracles.check_heat_fit(text, sides)),
    ]
    # builds each W(D_n) once, as any caller of the package pays it once
    warm = [["lie", "weyl", "--n", str(r), "--count"] for r in sizes.ranks]
    return ops, warm


BUILDERS = {
    "spectrum-free": _spectrum_free,
    "spectrum-triangle": _spectrum_triangle,
    "spectral-zeta": _spectral_zeta,
    "spectral-weyl": _spectral_weyl,
}


def build(workload: str, seed: int, work: Path, run_cli, sizes: Sizes = Sizes()):
    """Write the workload's inputs under ``work``; return (ops, warm-up argvs).

    ``run_cli(argv) -> str`` runs the package's CLI and returns its output;
    the triangle oracle uses it for the unconjugated reference spectra.
    """
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    return BUILDERS[workload](rng, work, sizes, run_cli)
