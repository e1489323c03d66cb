"""Small dB / watt conversion helpers used throughout the simulator."""

import numpy as np


def db_to_pow(x_db):
    """dB value -> linear power ratio."""
    # libm pow, as a scalar ** is; the SIMD array ** differs in the last bit
    return np.float_power(10.0, np.asarray(x_db, dtype=float) / 10.0)


def dbm_to_watts(x_dbm):
    """dBm -> watts."""
    return 10.0 ** ((np.asarray(x_dbm, dtype=float) - 30.0) / 10.0)
