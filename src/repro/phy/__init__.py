"""Channel and link modelling: path loss, noise, BER/PER, range."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".link": (
        "LinkModelError", "bit_error_rate", "frame_delivered",
        "packet_error_rate",
    ),
    ".pathloss": (
        "DEFAULT_FREQUENCY_HZ", "THERMAL_NOISE_DBM_HZ", "PropagationError",
        "fspl_db", "log_distance_path_loss_db", "noise_floor_dbm",
        "received_power_dbm", "snr_db",
    ),
    ".range_model": ("RangeEstimate", "max_range_m", "range_table"),
})
