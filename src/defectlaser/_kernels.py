"""Build the C kernels on first use (never at import) into ``__pycache__``,
named by a CRC of the source, ``_cx.h``, the flags and the interpreter."""

import os
import sys
import threading
from pathlib import Path

_FLAGS = ("-O3", "-ffp-contract=off", "-fno-builtin", "-fPIC", "-shared")


def kernel_cmd() -> list[str]:
    """The compiler command; the kernels' headers say why each flag."""
    import sysconfig
    return [*(sysconfig.get_config_var("CC") or "cc").split(), *_FLAGS]


def load_kernel(source: str, entry: str, signature: tuple, fallback: str,
                stacklevel: int):
    """``source`` loaded with ctypes, ``entry`` typed as ``signature``
    (restype, *argtypes); or None and a warning that ``fallback`` runs."""
    import ctypes
    import zlib
    here = Path(__file__).resolve().parent
    try:
        key = zlib.crc32((here / source).read_bytes()
                         + (here / "_cx.h").read_bytes()
                         + str((_FLAGS, os.path.realpath(sys.executable or ""),
                                sys.version)).encode())
        path = here / "__pycache__" / f"{Path(source).stem}.{key:08x}.so"
        if not path.exists():
            import subprocess
            cmd = kernel_cmd()
            path.parent.mkdir(exist_ok=True)
            tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
            if subprocess.run([*cmd, str(here / source), "-o", tmp],
                              capture_output=True).returncode:
                raise OSError(f"{cmd[0]} could not build {source}")
            os.replace(tmp, path)
        lib = ctypes.CDLL(str(path))
    except OSError as err:
        import warnings
        warnings.warn(f"{fallback}: no C kernel ({err})", RuntimeWarning,
                      stacklevel=stacklevel + 1)
        return None
    function = getattr(lib, entry)
    function.restype, function.argtypes = signature[0], signature[1:]
    return lib
