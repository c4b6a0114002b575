"""Seeded scalar call stream for the eval-pointwise workload.

The stream is cut into blocks of a fixed mix of call kinds, shuffled
within each block, so every stretch of the stream does the same kind of
work and only the arguments vary with the seed.
"""

from __future__ import annotations

import math
import random

# calls of each kind in one block (100 calls): the five kinds of call the
# workload is defined by get equal shares, and the two that are split by
# regime (dunkl_kernel at |x| = 12, qbessel3 on and off the q-grid) split
# their share in half.  The ranges follow the library's own defaults where
# it has them (planewave's 40 terms, spectrum's k_max = 3, the q suites'
# q = 0.5); the rest are marked as chosen here.
BLOCK_MIX = (
    ("bessel_j", 20),       # order in (-1, 30], x log-uniform in [1e-3, 500] (README range)
    ("dunkl_series", 10),   # |x| <= 12: ascending-series regime
    ("dunkl_jratio", 10),   # 12 < |x| <= 120 (chosen: ten times the switch point)
    ("gengeg", 20),         # GenGegenbauerFamily(P).eval(n, t), n <= 40 (planewave terms)
    ("qbessel3_grid", 10),  # x on a finite q-grid: repeats, as in a Jackson sum
    ("qbessel3_off", 10),   # x between grid points over the same span
    ("zeros", 20),          # bessel_zeros(ab + 1, k), k <= 3: `biexp eval eigenvalue`
)
BLOCK_SIZE = sum(n for _, n in BLOCK_MIX)

# (q, k_min, k_max): grid points q^k, base Q = q^2 as `biexp eval qbessel3`;
# q = 0.5 is the q suites' default, q = 0.7 and the k spans are chosen here
# (|x| from about 1e-6 to 4e3)
Q_GRIDS = ((0.5, -12, 20), (0.7, -20, 30))
QB_ORDERS = (0.3, 1.3, 2.5)


def grid_points() -> list:
    """Every (nu, x, Q) on the finite q-grid."""
    return [(nu, q ** k, q * q) for q, lo, hi in Q_GRIDS
            for nu in QB_ORDERS for k in range(lo, hi + 1)]


def repeat_frac() -> float:
    """Share of qbessel3 calls whose arguments repeat: every on-grid call
    after warm-up, since warm-up evaluates every grid point."""
    n = dict(BLOCK_MIX)
    return n["qbessel3_grid"] / (n["qbessel3_grid"] + n["qbessel3_off"])


def _draw(rng: random.Random, kind: str) -> tuple:
    u = rng.random
    if kind == "bessel_j":
        return (-1.0 + 31.0 * (1.0 - u()), math.exp(math.log(1e-3) + u() * math.log(5e5)))
    if kind == "dunkl_series":
        return (-0.95 + 3.95 * u(), rng.choice((-1.0, 1.0)) * 12.0 * (1.0 - u()))
    if kind == "dunkl_jratio":
        return (-0.95 + 3.95 * u(), rng.choice((-1.0, 1.0)) * (12.0 + 108.0 * (1.0 - u())))
    if kind == "gengeg":
        a = -0.9 + 3.9 * u()
        lo = max(-0.9, -0.95 - a)
        return (a, lo + (2.0 - lo) * u(), rng.randint(0, 40), -1.0 + 2.0 * u())
    if kind == "qbessel3_grid":
        q, lo, hi = rng.choice(Q_GRIDS)
        return (rng.choice(QB_ORDERS), q ** rng.randint(lo, hi), q * q)
    if kind == "qbessel3_off":
        q, lo, hi = rng.choice(Q_GRIDS)
        return (rng.choice(QB_ORDERS), q ** (lo + (hi - lo) * u()), q * q)
    if kind == "zeros":
        return (0.05 + 3.95 * u(), rng.randint(1, 3))
    raise KeyError(kind)


def blocks(seed: int):
    """Endless iterator of blocks; each block is a list of (kind, args)."""
    rng = random.Random(f"eval-pointwise/{seed}")
    kinds = [k for k, n in BLOCK_MIX for _ in range(n)]
    while True:
        rng.shuffle(kinds)
        yield [(k, _draw(rng, k)) for k in kinds]


def probe_set() -> list:
    """Fixed, seed-independent (kind, args) probes spanning every range,
    including the regime edges; used for the deterministic margin_max."""
    out = []
    for nu in (-0.95, -0.5, 0.0, 0.7, 2.5, 7.3, 15.0, 30.0):
        for x in (1e-3, 0.5, 5.0, 9.0, 11.9, 12.1, 30.0, 50.5, 120.0, 300.0, 500.0):
            out.append(("bessel_j", (nu, x)))
    for a in (-0.95, -0.5, 0.3, 1.5, 3.0):
        for x in (0.5, 6.0, 9.5, 11.5, 11.99):
            out += [("dunkl_series", (a, x)), ("dunkl_series", (a, -x))]
        for x in (12.01, 30.0, 60.0, 119.0):
            out += [("dunkl_jratio", (a, x)), ("dunkl_jratio", (a, -x))]
    for a, b in ((-0.5, 0.5), (0.3, -0.2), (2.9, 1.9), (-0.9, 0.0)):
        for n in (0, 1, 5, 10, 11, 20, 39, 40):
            for t in (-1.0, -0.7, 0.0, 0.3, 0.95, 1.0):
                out.append(("gengeg", (a, b, n, t)))
    for q, lo, hi in Q_GRIDS:
        for nu in QB_ORDERS:
            for k in (lo, lo // 2, 0, hi // 2, hi):
                out.append(("qbessel3_grid", (nu, q ** k, q * q)))
                out.append(("qbessel3_off", (nu, q ** (k + 0.5), q * q)))
    for nu in (0.05, 0.5, 1.5, 4.0):
        for k in (1, 2, 3):
            out.append(("zeros", (nu, k)))
    return out
