"""Energy accounting for compression-enabled storage (paper §VI #3).

The paper lists EDC's energy impact as future work, noting the
"dichotomy of compression/decompression that consumes additional energy
and data reduction that decreases data movement and thus energy
consumption".  :mod:`repro.energy.model` quantifies exactly that
dichotomy from replay measurements.
"""

from repro.energy.model import POWER, EnergyModel, EnergyReport

__all__ = ["POWER", "EnergyModel", "EnergyReport"]
