"""The Monte-Carlo stepping kernel, in numpy.

Only live paths are stepped.  The caller keeps their states and original
path numbers in the leading part of two arrays; each step updates the
states in place, records the paths absorbed on that step and moves the
survivors from the tail into the slots they left, so the live set stays
contiguous.  Every path's arithmetic is the same sequence of IEEE
operations whatever the live set is, so a path's default time depends
only on its own draws.
"""

from __future__ import annotations

import numpy as np


def step_paths(x: np.ndarray, index: np.ndarray, default_time: np.ndarray,
               z: np.ndarray, adt: float, b: float, csd: float,
               t_next: float, work: np.ndarray) -> int:
    """Advance the live paths one Euler step; absorb at the first nonpositive state.

    x             states of the live paths (all > 0), updated in place
    index         path number of each live path, permuted along with x
    default_time  per path number: grid time of absorption, NaN until then
    z             this step's standard normal draw for every path number;
                  overwritten
    adt           A * dt, the linear-drift increment factor
    b             constant drift increment over the step
    csd           diffusion scale: (2-alpha) * delta * sqrt(dv)
    t_next        right endpoint of the step, recorded as the default time
    work          scratch space of at least x.size doubles

    Each state becomes ((x + adt x) + b) + ((csd sqrt(x)) z).  Returns the
    number m of paths still alive; they are now x[:m] and index[:m].
    """
    n = x.size
    z = z[index] if n < z.size else z
    work = work[:n]
    np.sqrt(x, out=work)
    work *= csd
    z *= work
    np.multiply(x, adt, out=work)
    x += work
    x += b
    x += z
    if x.min() > 0.0:
        return n
    absorbed = x <= 0.0
    dead = np.flatnonzero(absorbed)
    default_time[index[dead]] = t_next
    m = n - dead.size
    holes = dead[dead < m]
    movers = m + np.flatnonzero(~absorbed[m:])
    x[holes] = x[movers]
    index[holes] = index[movers]
    return m
