"""The Monte-Carlo stepping kernel, in numpy.

Each path keeps its own slot, and each step updates every slot in place.
A path absorbed on a step has its state set to NaN; every later step
carries the NaN through unchanged, and NaN <= 0 is false, so a path is
absorbed once.  A live path's arithmetic is the same sequence of IEEE
operations whatever the other paths do, so its default time depends only
on its own draws.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError


def step_paths(x: np.ndarray, default_time: np.ndarray, z: np.ndarray, adt: float,
               b: float, csd: float, t_next: float, work: np.ndarray, n_alive: int) -> int:
    """Advance every path one Euler step; absorb at the first nonpositive state.

    x             state per path: > 0 while alive, NaN once absorbed; updated in place
    default_time  per path: grid time of absorption, NaN until then
    z             this step's standard normal draw per path; overwritten
    adt           A * dt, the linear-drift increment factor
    b             constant drift increment over the step
    csd           diffusion scale: (2-alpha) * delta * sqrt(dv)
    t_next        right endpoint of the step, recorded as the default time
    work          scratch space of x.size doubles
    n_alive       number of paths alive before the step

    Each state becomes ((x + adt x) + b) + ((csd sqrt(x)) z).  Returns the
    number of paths still alive.  Under np.errstate(over="raise"), as
    ``mc.simulate_fpt`` steps, a state that overflows raises NumericalError.
    """
    try:
        np.sqrt(x, out=work)
        work *= csd
        z *= work
        np.multiply(x, adt, out=work)
        x += work
        x += b
        x += z
    except FloatingPointError as exc:
        raise NumericalError(f"Monte-Carlo state overflowed on the Euler step to "
                             f"t = {t_next!r}: {exc}") from exc
    # fmin skips the NaN of absorbed paths
    if np.fmin.reduce(x) > 0.0:
        return n_alive
    absorbed = x <= 0.0
    default_time[absorbed] = t_next
    x[absorbed] = np.nan
    return n_alive - int(np.count_nonzero(absorbed))
