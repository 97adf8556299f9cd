"""Radio propagation models for the 2.4 GHz band.

Used for two things in the reproduction: (1) deciding whether a frame on
the simulated medium is decodable at a receiver, and (2) backing the
paper's §5.4 remark that Wi-LE at 72 Mbps / 0 dBm "has a similar range as
BLE at the same transmission power (i.e., a few meters)".
"""

from __future__ import annotations

import math

SPEED_OF_LIGHT_M_S = 299_792_458.0

#: Centre frequency of 2.4 GHz channel 6 (both WiFi and BLE live here).
DEFAULT_FREQUENCY_HZ = 2.437e9

#: Thermal noise density at 290 K in dBm/Hz.
THERMAL_NOISE_DBM_HZ = -174.0

# The simulated medium's propagation constants. The event engine
# (:class:`repro.sim.medium.WirelessMedium`), the fleet's cohort kernel
# and the mobility AP grid all read these, so their path loss and
# delivery decisions can never disagree.

#: Log-distance exponent: 3.0 is typical indoors with light obstruction.
PATH_LOSS_EXPONENT = 3.0

#: SINR above which the stronger of two overlapping frames still decodes
#: (physical-layer capture).
CAPTURE_THRESHOLD_DB = 10.0

#: Channel bandwidth whose thermal noise sets the receiver noise floor.
BANDWIDTH_HZ = 20e6

#: Radios closer than this are clamped apart, since the path-loss model
#: diverges at zero distance.
MIN_DISTANCE_M = 0.1


class PropagationError(ValueError):
    """Raised for impossible geometry (non-positive distance etc.)."""


def fspl_db(distance_m: float, frequency_hz: float = DEFAULT_FREQUENCY_HZ) -> float:
    """Free-space path loss in dB (Friis)."""
    if distance_m <= 0:
        raise PropagationError(f"distance must be positive, got {distance_m}")
    if frequency_hz <= 0:
        raise PropagationError(f"frequency must be positive, got {frequency_hz}")
    wavelength = SPEED_OF_LIGHT_M_S / frequency_hz
    return 20.0 * math.log10(4.0 * math.pi * distance_m / wavelength)


def log_distance_path_loss_db(distance_m: float, exponent: float = 3.0,
                              reference_m: float = 1.0,
                              frequency_hz: float = DEFAULT_FREQUENCY_HZ) -> float:
    """Log-distance model: FSPL to ``reference_m``, exponent beyond.

    An exponent of 3.0 is typical indoors with light obstruction — the
    environment the paper's apartment/office experiments imply.
    """
    if distance_m <= 0:
        raise PropagationError(f"distance must be positive, got {distance_m}")
    if exponent < 1.0:
        raise PropagationError(f"path-loss exponent {exponent} below free space")
    reference_loss = fspl_db(reference_m, frequency_hz)
    if distance_m <= reference_m:
        return fspl_db(distance_m, frequency_hz)
    return reference_loss + 10.0 * exponent * math.log10(distance_m / reference_m)


def noise_floor_dbm(bandwidth_hz: float, noise_figure_db: float = 7.0) -> float:
    """Receiver noise floor: kTB plus the front-end noise figure."""
    if bandwidth_hz <= 0:
        raise PropagationError(f"bandwidth must be positive, got {bandwidth_hz}")
    return THERMAL_NOISE_DBM_HZ + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


def received_power_dbm(tx_power_dbm: float, distance_m: float,
                       exponent: float = 3.0,
                       tx_gain_dbi: float = 0.0, rx_gain_dbi: float = 0.0,
                       frequency_hz: float = DEFAULT_FREQUENCY_HZ) -> float:
    """Received signal strength under the log-distance model."""
    loss = log_distance_path_loss_db(distance_m, exponent,
                                     frequency_hz=frequency_hz)
    return tx_power_dbm + tx_gain_dbi + rx_gain_dbi - loss


def snr_db(tx_power_dbm: float, distance_m: float,
           bandwidth_hz: float = 20e6, exponent: float = 3.0,
           noise_figure_db: float = 7.0,
           frequency_hz: float = DEFAULT_FREQUENCY_HZ) -> float:
    """Link SNR for a transmitter at ``distance_m``."""
    return (received_power_dbm(tx_power_dbm, distance_m, exponent,
                               frequency_hz=frequency_hz)
            - noise_floor_dbm(bandwidth_hz, noise_figure_db))
