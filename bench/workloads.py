"""The four workloads: seeded inputs, the operation each times, its check.

A workload yields *rounds*: lists of operation inputs.  A run always
attempts whole rounds, so a workload with a fixed set of failing inputs
fails exactly the same share of its operations in every run.  Inputs are
plain data built here from the seed; the package sees nothing else.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import barwaves
import barwaves.cli
from barwaves import PRESETS, Material, State

import oracles

CUBIC = PRESETS["cubic"]
QUINTIC = PRESETS["quintic"]
#: alpha + beta = 1e-3: characteristic speeds reach ~30 near T = 0, so the
#: wave curves are steep while the strain stays an exact cubic.
NEAR_HYPERBOLIC = Material(alpha=1.0, beta=-0.999, gamma=1.0, n=1.0, rho=1.0)

#: Fixed seed of the `wide` pool.  Its inputs do not depend on --seed: some
#: of them hit a solver fault, and only a seed-independent pool keeps the
#: failed share identical in every run.  --seed orders each round.
WIDE_POOL_SEED = 1
WIDE_PER_MATERIAL = 300

ATLAS_RES = 21
FV_CELLS = 400
FV_CFL = 0.45
FV_T_END = 0.5
FV_SAMPLES = 4001


@dataclass(frozen=True)
class Workload:
    #: modules a fresh interpreter imports before its first operation
    imports: tuple[str, ...]
    #: percentile reported as op_tail_ms; a run collects at least
    #: 10 / (1 - tail/100) successful samples so ten lie beyond it
    tail: float
    rounds: Callable[[int], Iterator[list]]
    op: Callable
    check: Callable
    #: True for an error that is the fault this workload is known to hit
    known_fault: Callable[[BaseException], bool] = lambda exc: False

    @property
    def min_samples(self) -> int:
        return math.ceil(10.0 / (1.0 - self.tail / 100.0))


def _state(rng: random.Random, t_max: float, v_max: float) -> State:
    return State(rng.uniform(-t_max, t_max), rng.uniform(-v_max, v_max))


def _log_uniform(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 3.0)


# ---------------------------------------------------------------------------
# box and wide: one solve per operation


def box_rounds(seed: int) -> Iterator[list]:
    """Invariant-suite distribution: stresses in [-3, 3], velocities in
    [-5, 5], one cubic and one quintic problem per round."""
    rng = random.Random(seed)
    while True:
        yield [(m, _state(rng, 3.0, 5.0), _state(rng, 3.0, 5.0))
               for m in (CUBIC, QUINTIC)]


def wide_pool() -> list:
    """Stresses and velocities log-uniform in magnitude over 1e-6..1e3 with
    random signs; WIDE_PER_MATERIAL problems per material."""
    rng = random.Random(WIDE_POOL_SEED)
    pool = []
    for m in (CUBIC, QUINTIC, NEAR_HYPERBOLIC):
        for _ in range(WIDE_PER_MATERIAL):
            U_l = State(_log_uniform(rng), _log_uniform(rng))
            U_r = State(_log_uniform(rng), _log_uniform(rng))
            pool.append((m, U_l, U_r))
    return pool


def wide_rounds(seed: int) -> Iterator[list]:
    """The whole pool per round, in an order drawn from the seed.  Each round
    starts with an empty tangency cache where the package keeps one, so a
    repeated pool costs what distinct inputs would."""
    pool = wide_pool()
    rng = random.Random(seed)
    while True:
        order = list(pool)
        rng.shuffle(order)
        cache_clear = getattr(barwaves.tangent_point, "cache_clear", None)
        if cache_clear is not None:
            cache_clear()
        yield order


def solve_op(item):
    m, U_l, U_r = item
    return barwaves.solve(m, U_l, U_r)


def check_solve(item, pattern):
    m, U_l, U_r = item
    return oracles.check_pattern(m, U_l, U_r, pattern)


def is_residual_fault(exc: BaseException) -> bool:
    """The middle-stress residual-tolerance NoBracket that `wide` hits: a
    roundoff-level residual judged against max(1, |v_l|, |v_r|)."""
    text = str(exc)
    return (isinstance(exc, barwaves.NoBracket)
            and text.startswith("middle-stress residual")
            and text.endswith("misses the tolerance"))


# ---------------------------------------------------------------------------
# atlas: one zero-velocity sweep of the cubic preset through the CLI


class CliFailure(RuntimeError):
    """The CLI returned a nonzero exit code."""


def atlas_path() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "out", f"atlas-{os.getpid()}.csv")


def atlas_rounds(seed: int) -> Iterator[list]:
    """Windows [-a, a] x [-b, b] with a in [1, 2] and b in [2.5, 3.5], so
    every sweep keeps the zero row and column (odd resolution) and reaches
    beyond T** of its outer rows; no two sweeps share grid values."""
    rng = random.Random(seed)
    while True:
        yield [(rng.uniform(1.0, 2.0), rng.uniform(2.5, 3.5))]


def run_atlas(a: float, b: float, path: str) -> str:
    """`barwaves atlas` over [-a, a] x [-b, b], written to path."""
    code = barwaves.cli.main([
        "atlas", "--material", "cubic",
        "--tl-min", repr(-a), "--tl-max", repr(a),
        "--tr-min", repr(-b), "--tr-max", repr(b),
        "--res", str(ATLAS_RES), "--out", path])
    if code != 0:
        raise CliFailure(f"barwaves atlas exited with {code}")
    return path


def atlas_op(item):
    return run_atlas(*item, atlas_path())


def grid(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def check_atlas(item, path):
    a, b = item
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return oracles.check_atlas_csv(CUBIC, text, grid(-a, a, ATLAS_RES),
                                   grid(-b, b, ATLAS_RES))


# ---------------------------------------------------------------------------
# fvcheck: exact solution against the finite-volume reference


def fv_rounds(seed: int) -> Iterator[list]:
    """Released-bar data: stresses in [-2, 2], both velocities zero, one
    cubic and one quintic problem per round.  The reference scheme bounds
    its wave speed by the stresses of the data alone, which holds for such
    data but not when the velocities lift the middle stress outside them."""
    rng = random.Random(seed)
    while True:
        yield [(m, _state(rng, 2.0, 0.0), _state(rng, 2.0, 0.0))
               for m in (CUBIC, QUINTIC)]


def fv_op(item):
    m, U_l, U_r = item
    pattern = barwaves.solve(m, U_l, U_r)
    tallies: dict = {}
    fv = barwaves.fv_reference(m, U_l, U_r, FV_CELLS, FV_CFL, FV_T_END,
                               tallies=tallies)
    exact = barwaves.profile(pattern, fv.xi[0], fv.xi[-1], FV_SAMPLES)
    distance = barwaves.l1_distance(exact, fv)
    return pattern, distance, tallies, fv.xi[-1] - fv.xi[0]


def check_fv(item, output):
    m, U_l, U_r = item
    pattern, distance, tallies, width = output
    return (oracles.check_pattern(m, U_l, U_r, pattern)
            or oracles.check_fv(m, U_l, U_r, distance, tallies, width,
                                FV_CELLS))


WORKLOADS = {
    "box": Workload(("barwaves",), 99.0, box_rounds, solve_op,
                    check_solve),
    "wide": Workload(("barwaves",), 99.0, wide_rounds, solve_op,
                     check_solve, is_residual_fault),
    "atlas": Workload(("barwaves", "barwaves.cli"), 75.0,
                      atlas_rounds, atlas_op, check_atlas),
    "fvcheck": Workload(("barwaves",), 90.0, fv_rounds, fv_op,
                        check_fv),
}
