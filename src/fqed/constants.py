"""Physical constants in natural units (hbar = c = 1); a table's memory cap."""

import os
import sys

ALPHA_DEFAULT = 7.2973525693e-3         # fine-structure constant
ELECTRON_MASS_MEV = 0.51099895          # display-only rescaling factor

# no table of samples or sweep points can hold more bytes than physical
# memory (or numpy's largest array, sys.maxsize, where the platform does
# not report memory)
try:
    MAX_RECORD_BYTES = (os.sysconf("SC_PHYS_PAGES")
                        * os.sysconf("SC_PAGE_SIZE"))
except (AttributeError, ValueError, OSError):
    MAX_RECORD_BYTES = sys.maxsize
