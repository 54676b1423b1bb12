"""On-disk formats: binary grid dumps, CSV tables, run metadata.

Binary grid format (little endian): magic "OSQM", version u32, n u32 (dof),
N u32 (points of axis 0; axis 1 count in the reserved extent slots for
unequal grids is not supported by this format and raises), hbar f64,
extents f64 x 4 (x_extent axis 0, p_extent axis 0, x_extent axis 1,
p_extent axis 1; zeros when dof = 1), then row-major f64 values.
Only real-valued fields (Wigner states, Hermitian symbols) are dumped.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .grid import PhaseGrid

__all__ = ["write_grid_dump", "read_grid_dump", "write_csv", "write_metadata",
           "format_float"]

MAGIC = b"OSQM"
VERSION = 1


def write_grid_dump(path, grid: PhaseGrid, values: np.ndarray) -> None:
    values = np.asarray(values)
    if values.shape != grid.phase_shape:
        raise ValueError("values do not match the grid's phase-space shape")
    if np.iscomplexobj(values):
        if np.abs(values.imag).max() > 1e-10:
            raise ValueError("binary dump stores real fields only; "
                             "dump real and imaginary parts separately")
        values = values.real
    if grid.dof == 2 and grid.points[0] != grid.points[1]:
        raise ValueError("binary dump format carries one point count; "
                         "unequal-axis grids are not representable")
    ext = [grid.x_extents[0], grid.p_extents[0], 0.0, 0.0]
    if grid.dof == 2:
        ext[2] = grid.x_extents[1]
        ext[3] = grid.p_extents[1]
    header = MAGIC + struct.pack("<III", VERSION, grid.dof, grid.points[0])
    header += struct.pack("<d", grid.hbar)
    header += struct.pack("<4d", *ext)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_grid_dump(path) -> tuple[PhaseGrid, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ValueError("not a grid dump (bad magic)")
    version, dof, n = struct.unpack("<III", blob[4:16])
    if version != VERSION:
        raise ValueError(f"unsupported dump version {version}")
    (hbar,) = struct.unpack("<d", blob[16:24])
    ext = struct.unpack("<4d", blob[24:56])
    if dof == 1:
        grid = PhaseGrid(dof=1, points=(n,), x_extents=(ext[0],), hbar=hbar)
    else:
        grid = PhaseGrid(dof=2, points=(n, n), x_extents=(ext[0], ext[2]),
                         hbar=hbar)
    values = np.frombuffer(blob[56:], dtype="<f8").reshape(grid.phase_shape)
    return grid, values.copy()


def format_float(x) -> str:
    """Stable shortest-roundtrip decimal rendering (bit-reproducible)."""
    return repr(float(x))


def write_csv(path, header: list, rows: list) -> None:
    """Deterministic CSV writer: fixed separators, repr floats, LF endings."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(format_float(cell))
            elif isinstance(cell, (np.floating,)):
                cells.append(format_float(float(cell)))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


def write_metadata(path, config_dict: dict, seed, extra: dict) -> None:
    """Run metadata sufficient to reproduce the run byte for byte.

    Deliberately timestamp-free so repeated runs produce identical files.
    """
    from . import __version__
    meta = {
        "package_version": __version__,
        "config": config_dict,
        "base_seed": seed,
        "extra": extra,
    }
    Path(path).write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
