"""Physical layer: propagation, transceivers, the shared medium, energy."""

from repro.phy.channel import Channel
from repro.phy.energy import EnergyMeter, EnergyModel
from repro.phy.propagation import (
    SPEED_OF_LIGHT,
    FreeSpace,
    LogDistance,
    PropagationModel,
    RayleighFading,
    TwoRayGround,
    range_to_threshold_dbm,
)
from repro.phy.radio import RadioConfig, RadioState, Reception, Transceiver

__all__ = [
    "Channel",
    "EnergyMeter",
    "EnergyModel",
    "FreeSpace",
    "LogDistance",
    "PropagationModel",
    "RadioConfig",
    "RadioState",
    "RayleighFading",
    "Reception",
    "SPEED_OF_LIGHT",
    "Transceiver",
    "TwoRayGround",
    "range_to_threshold_dbm",
]
