"""Print the name of the OpenBLAS kernel that numpy runs on this host.

    python tools/blas_kernel.py

numpy's Linux wheels bundle OpenBLAS as
``numpy.libs/libscipy_openblas64_*.so``, which exports
``scipy_openblas_get_corename64_``. The kernel follows the CPU, or
``OPENBLAS_CORETYPE`` when that is set, and it decides the last bits of
every matrix product, so which byte-exact tests and output references
hold depends on it (ROADMAP items 5 and 12). Prints the name, for
example ``SkylakeX``; exits 1 when no bundled OpenBLAS is found.
"""

from __future__ import annotations

import ctypes
import sys
from pathlib import Path


def corename() -> str | None:
    """The kernel name from numpy's bundled OpenBLAS, or None without one."""
    import numpy  # loads the library, so ctypes gets the instance numpy uses

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        get = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        get.restype = ctypes.c_char_p
        return get().decode()
    return None


def main() -> int:
    name = corename()
    if name is None:
        print("no bundled OpenBLAS found next to numpy", file=sys.stderr)
        return 1
    print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
