"""Correctness gates: each reads one operation's artifacts and returns a
list of mismatches, empty when the operation's outputs are correct.

`reference.json` is committed data: the gated values as the seed commit
of the repository produced them, recorded once.  The benchmark never
rewrites it.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Relative tolerance of every recorded-value comparison.  Artifacts carry 12
# significant digits, and the BLAS thread count moves results by ~1e-12.
RTOL = 1e-8
# Absolute tolerance (E_rec) of the closed-form spectrum oracles; the seed
# code meets them to ~1e-12.
ORACLE_ATOL = 1e-9


def _compare(what: str, got, want) -> list[str]:
    """Numbers must agree to RTOL; anything else must be equal."""
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{what}: expected {len(want)} entries, got {got!r}"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in _compare(f"{what}[{i}]", g, w)]
    if isinstance(want, float):
        if isinstance(got, float) and math.isclose(got, want, rel_tol=RTOL):
            return []
    elif got == want:
        return []
    return [f"{what}: got {got!r}, expected {want!r}"]


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- dist ---------------------------------------------------------------------


def _read_dist(out: Path) -> dict:
    metrics = json.loads((out / "epr_metrics.json").read_text())
    return {key: float(metrics[key]) for key in ("dx_minus", "dp_plus", "s")}


def _check_values(read):
    def check(out: Path, ref: dict) -> list[str]:
        got = read(out)
        return [p for key in ref for p in _compare(key, got[key], ref[key])]

    return check


check_dist = _check_values(_read_dist)


# -- protocol -----------------------------------------------------------------


def _read_protocol(out: Path) -> dict:
    final = _read_csv(out / "protocol_diagnostics.csv")[-1]
    summary = json.loads((out / "postselect.json").read_text())
    return {
        "displacement_ratio": float(final["displacement_ratio"]),
        "retained_mass": float(summary["retained_mass"]),
    }


check_protocol = _check_values(_read_protocol)


# -- spectrum -----------------------------------------------------------------


def spectrum_points(out: Path) -> dict[float, list[float]]:
    """vdd value -> sorted eigenvalues (E_rec) at that sweep point."""
    points: dict[float, list[float]] = {}
    for row in _read_csv(out / "spectrum.csv"):
        points.setdefault(float(row["value"]), []).append(float(row["energy_erec"]))
    return {vdd: sorted(energies) for vdd, energies in points.items()}


def free_spectrum(n: int, hop: float) -> list[float]:
    """V_dd = 0: all sums of two single-atom energies 2 V_hop cos k."""
    band = [2.0 * hop * math.cos(2.0 * math.pi * m / n) for m in range(n)]
    return sorted(e1 + e2 for e1 in band for e2 in band)


def pair_band(n: int, hop: float, vdd: float) -> list[float]:
    """Split-off band E_K = -sqrt(V_dd^2 + 16 V_hop^2 cos^2(K/2)), K = 2 pi m / N."""
    return sorted(
        -math.sqrt(vdd**2 + 16.0 * hop**2 * math.cos(math.pi * m / n) ** 2) for m in range(n)
    )


def check_spectrum(out: Path, ref: dict) -> list[str]:
    """Every eigenvalue at V_dd = 0, and the lowest N wherever the whole pair
    band lies below the two-atom continuum (|V_dd| > 4 |V_hop|), must match
    the closed forms; in between the band overlaps the continuum."""
    hop = ref["vhop_erec"]
    points = spectrum_points(out)
    problems = _compare("vdd values", sorted(points), sorted(ref["vdd_values"]))
    for vdd, energies in points.items():
        n = math.isqrt(len(energies))
        if n * n != len(energies):
            problems.append(f"vdd {vdd}: {len(energies)} eigenvalues is not N^2")
            continue
        if vdd == 0.0:
            expected = free_spectrum(n, hop)
        elif abs(vdd) > 4.0 * abs(hop):
            expected = pair_band(n, hop, vdd)
        else:
            continue
        worst = max(abs(g - w) for g, w in zip(energies, expected))
        if worst > ORACLE_ATOL:
            problems.append(f"vdd {vdd}: closed form missed by {worst:.3g} E_rec")
    return problems
