"""Seeded synthetic ring plants for the benchmark.

Built only from the public ``GeneratorParams`` / ``NetworkModel`` /
``construct_equilibrium`` / ``PlantModel`` API.  Machine ``i`` is tied to
machines ``i - 1`` and ``i + 1`` (mod ``n``), so a faulty machine has exactly
two structurally useful helpers and every other helper set must route
through them.

Acceptance test: every plant has an exact zero eigenvalue from
angle-rotation invariance (shifting every rotor angle by one constant leaves
the dynamics unchanged), so ``is_hurwitz(lin.full_matrix())`` rejects all of
them, desk5 included.  The generator instead drops the eigenvalue nearest
zero and requires every other eigenvalue to have a strictly negative real
part.
"""

from __future__ import annotations

import numpy as np

from gridftc.power_model import (
    GeneratorParams,
    NetworkModel,
    PlantModel,
    construct_equilibrium,
)

OMEGA0 = 100.0 * np.pi
# The rotation mode sits at zero to rounding; the rest must clear this margin.
STABILITY_MARGIN = 1e-6
MAX_DRAWS = 50


def _draw(n: int, rng: np.random.Generator, name: str) -> PlantModel:
    u = rng.uniform
    G = np.zeros((n, n))
    B = np.zeros((n, n))
    for i in range(n):
        j = (i + 1) % n
        G[i, j] = G[j, i] = u(0.02, 0.06)
        B[i, j] = B[j, i] = u(0.40, 0.70)
    np.fill_diagonal(G, u(0.25, 0.30, n))
    np.fill_diagonal(B, -u(1.40, 1.60, n))
    gens = [
        GeneratorParams(D=u(1.5, 3.0), H=u(4.0, 6.0), omega0=OMEGA0, Pm=0.0,
                        Tdo_prime=u(5.0, 7.5), xd=u(1.40, 1.60),
                        xd_prime=u(0.27, 0.32), xad=u(1.20, 1.35))
        for _ in range(n)
    ]
    net = NetworkModel(G=G, B=B)
    gens, op = construct_equilibrium(0.2 + u(-0.15, 0.15, n),
                                     u(1.02, 1.08, n), gens, net)
    return PlantModel(generators=tuple(gens), network=net, op=op, name=name)


def stable_but_rotation(plant: PlantModel) -> bool:
    """All eigenvalues except the one nearest zero have negative real part."""
    eig = np.linalg.eigvals(plant.linearize().full_matrix())
    rest = np.delete(eig, np.argmin(np.abs(eig)))
    return bool(np.max(rest.real) < -STABILITY_MARGIN)


def ring_plant(n: int, seed: int) -> PlantModel:
    """A stable ``n``-machine ring drawn from ``seed`` (same seed, same plant)."""
    if n < 3:
        raise ValueError(f"a ring needs at least 3 machines, got {n}")
    rng = np.random.default_rng([seed, n])
    for draw in range(MAX_DRAWS):
        plant = _draw(n, rng, f"ring{n}-s{seed}-d{draw}")
        if stable_but_rotation(plant):
            return plant
    raise RuntimeError(f"no stable {n}-machine ring in {MAX_DRAWS} draws "
                       f"for seed {seed}")
