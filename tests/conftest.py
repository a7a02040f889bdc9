"""Shared generators for randomized sweeps (seeded, reproducible)."""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import settings

from limrod import MaterialParams, Loads, Strains

# the @given tests draw the same examples on every run and keep no example
# database, so the suite is deterministic; each test sets its own max_examples
settings.register_profile("limrod", derandomize=True, database=None)
settings.load_profile("limrod")
# hypothesis still caches the constants it reads from source files, at
# collection: in the system's temporary directory, not in the checkout
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "limrod-hypothesis")
)

P_GRID = (1.0, 2.0, 3.0, 4.0)


def mk(alpha=1.0, beta=1.0, gamma=1.0, zeta=1.0, eta=1.0, iota=0.0, p=2.0, ref_length=1.0):
    """A parameter set with unit defaults, in MaterialParams' field order."""
    return MaterialParams(alpha, beta, gamma, zeta, eta, iota, p, ref_length)


def random_params(
    rng: np.random.Generator,
    p: float | None = None,
    normalized: bool = True,
    coupling: float = 0.95,
) -> MaterialParams:
    """Random admissible parameter set; |iota| stays below
    sqrt(coupling) * beta * eta so the definiteness margin never collapses."""
    alpha, beta, zeta, eta = 10.0 ** rng.uniform(-0.7, 0.7, size=4)
    iota = rng.uniform(-1.0, 1.0) * np.sqrt(coupling) * beta * eta
    if p is None:
        p = float(rng.choice(P_GRID))
    gamma, ref = (1.0, 1.0) if normalized else tuple(10.0 ** rng.uniform(-1, 1, size=2))
    return MaterialParams(
        alpha=float(alpha),
        beta=float(beta),
        gamma=float(gamma),
        zeta=float(zeta),
        eta=float(eta),
        iota=float(iota),
        p=p,
        ref_length=float(ref),
    )


def strain_form_matrix(params: MaterialParams) -> np.ndarray:
    """Independent 6x6 matrix of Q on (u, v - e3), built from the definition."""
    m = np.diag(
        [
            params.alpha**2,
            params.alpha**2,
            params.beta**2,
            params.zeta**2,
            params.zeta**2,
            params.eta**2,
        ]
    )
    m[2, 5] = m[5, 2] = params.iota
    return m


def load_form_matrix(params: MaterialParams) -> np.ndarray:
    """Independent 6x6 matrix of Q* on loads, built from the definition."""
    det = params.beta**2 * params.eta**2 - params.iota**2
    m = np.diag(
        [
            1.0 / params.alpha**2,
            1.0 / params.alpha**2,
            params.eta**2 / det,
            1.0 / params.zeta**2,
            1.0 / params.zeta**2,
            params.beta**2 / det,
        ]
    )
    m[2, 5] = m[5, 2] = -params.iota / det
    return m


def random_strains(
    rng: np.random.Generator, params: MaterialParams, q_target: float
) -> Strains:
    """Strain state with Q(u, v) exactly q_target, in a random direction."""
    direction = rng.standard_normal(6)
    m = strain_form_matrix(params)
    q_dir = direction @ m @ direction
    dev = direction * np.sqrt(q_target / q_dir)
    return Strains(dev[0], dev[1], dev[2], dev[3], dev[4], 1.0 + dev[5])


def random_loads(
    rng: np.random.Generator, params: MaterialParams, qstar_target: float
) -> Loads:
    """Load state with Q*(m, n) exactly qstar_target, in a random direction."""
    direction = rng.standard_normal(6)
    m = load_form_matrix(params)
    q_dir = direction @ m @ direction
    vec = direction * np.sqrt(qstar_target / q_dir)
    return Loads(*vec)


@pytest.fixture
def demo_params() -> MaterialParams:
    """Bifurcating reference set used throughout the closed-form examples."""
    return MaterialParams(alpha=1.0, beta=1.0, gamma=1.0, zeta=1.0, eta=2.0, iota=0.0, p=2.0)


MALFORMED_CSV_KINDS = (
    "column count", "non-numeric", "nan", "inf", "blank interior line", "comment line",
    "header only", "one row", "bad header",
)


def malformed_csv_variants(good: str) -> dict[str, tuple[str, str]]:
    """Malformed variants of a good configuration CSV (at least seven data
    rows): kind -> (text, regex the reader's ValueError must match). Data
    row 5 sits on line 6 of the file."""
    lines = good.splitlines()
    row = lines[5].split(",")

    def with_line6(new):
        return "\n".join([*lines[:5], new, *lines[6:]]) + "\n"

    return {
        "column count": (with_line6(",".join(row[:12])), r"^line 6: expected 13 columns, got 12$"),
        "non-numeric": (with_line6(",".join(["x", *row[1:]])), r"^line 6: could not convert"),
        "nan": (with_line6(",".join([row[0], "nan", *row[2:]])), r"^line 6: non-finite value$"),
        "inf": (with_line6(",".join([*row[:12], "-inf"])), r"^line 6: non-finite value$"),
        "blank interior line": (with_line6(""), r"^line 6: expected 13 columns, got 1$"),
        "comment line": (with_line6("#" + lines[5]), r"^line 6: could not convert"),
        "header only": (lines[0] + "\n", r"needs at least two samples"),
        "one row": ("\n".join(lines[:2]) + "\n", r"needs at least two samples"),
        "bad header": ("\n".join(["s,x,y", *lines[1:]]) + "\n", r"header"),
    }
