from .base import Library, Witness, check_consistent
from .barrier import BarrierLib
from .msw import MixedSizeLib
from .rdma_tso import RdmaTsoLib
from .rdma_wait import RdmaWaitLib
from .ringbuf import RingBufferLib
from .sv import SharedVarLib


LIBRARIES = {"sv": SharedVarLib, "rl": RdmaWaitLib, "tso": RdmaTsoLib,
             "bal": BarrierLib, "rbl": RingBufferLib, "msw": MixedSizeLib}

# The libraries that take a variant, and their variants, default first.
VARIANTS = {"bal": ("weak", "transitive"), "rbl": ("strict", "weak")}


def make_library(name: str, *, bal_variant: str = "weak",
                 rbl_mode: str = "strict") -> Library:
    """Instantiate a library by its short name (sv, rl, tso, bal, rbl, msw)."""
    if name not in LIBRARIES:
        raise ValueError(f"unknown library {name!r}")
    if name == "bal":
        return BarrierLib(bal_variant)
    if name == "rbl":
        return RingBufferLib(rbl_mode)
    return LIBRARIES[name]()


__all__ = ["Library", "Witness", "check_consistent",
           "BarrierLib", "MixedSizeLib", "RdmaTsoLib", "RdmaWaitLib",
           "RingBufferLib", "SharedVarLib", "LIBRARIES", "VARIANTS", "make_library"]
