"""Shared test helpers."""

import numpy as np

from todalab.functional import MultiField
from todalab.grid import random_smooth_field


def random_pair(spec, seed, amplitude=0.5):
    """Two smooth random fields on the band k_max = 4, drawn from one numpy seed."""
    rng = np.random.default_rng(seed)
    return MultiField(
        (
            random_smooth_field(spec, rng, k_max=4, amplitude=amplitude),
            random_smooth_field(spec, rng, k_max=4, amplitude=amplitude),
        )
    )
