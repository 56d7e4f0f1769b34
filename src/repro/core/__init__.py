"""DDR core: the paper's contribution (descriptor, mapping, reorganization)."""

from .api import (
    DDR_NewDataDescriptor,
    DDR_ReorganizeData,
    DDR_SetupDataMapping,
    Redistributor,
    ResizeResult,
)
from .box import Box, boxes_from_flat
from .descriptor import (
    DATA_TYPE_1D,
    DATA_TYPE_2D,
    DATA_TYPE_3D,
    DataDescriptor,
    DataLayout,
)
from .engine import ExchangeProgress, default_backend, execute
from .mapcache import MappingCache
from .mapping import (
    LocalMapping,
    StaleMappingError,
    setup_data_mapping,
)
from .packing import BufferCache, check_buffers, check_buffers_cached
from .schedule import (
    GlobalPlan,
    Lane,
    RoundSchedule,
    RoundTable,
    collective_preferred,
    compute_global_plan,
    round_protocol,
)
from .validate import MappingValidationError, check_send_coverage

__all__ = [
    "Box",
    "BufferCache",
    "DATA_TYPE_1D",
    "DATA_TYPE_2D",
    "DATA_TYPE_3D",
    "DDR_NewDataDescriptor",
    "DDR_ReorganizeData",
    "DDR_SetupDataMapping",
    "DataDescriptor",
    "DataLayout",
    "ExchangeProgress",
    "GlobalPlan",
    "Lane",
    "LocalMapping",
    "MappingCache",
    "MappingValidationError",
    "Redistributor",
    "ResizeResult",
    "RoundSchedule",
    "RoundTable",
    "StaleMappingError",
    "boxes_from_flat",
    "check_buffers",
    "check_buffers_cached",
    "check_send_coverage",
    "collective_preferred",
    "compute_global_plan",
    "default_backend",
    "execute",
    "round_protocol",
    "setup_data_mapping",
]
