"""LBM — lattice-Boltzmann stream-collide kernel (paper §7.3).

A Fortran rendering of the Parboil LBM structure: the distribution
functions of all cells live in one flat array per grid (``srcgrid`` /
``dstgrid``); direction ``d`` of cell ``i`` sits at
``base_d + n_cell_entries * stream_offset_d + i`` where the 19 base
scalars (``c``, ``n``, ``s``, ... ``wb``) and the per-direction stream
offsets come from the D3Q19 neighborhood on a 120 × 120 grid plane
(y-stride 120, z-stride 14400 — the exact constants of the paper's
listing).

Every cell *reads* its own 19 distributions from ``srcgrid``
(offset 0) and *writes* the post-collision values into the neighbors'
slots of ``dstgrid`` (push scheme). The adjoint therefore increments
``srcgridb`` at the 19 *read* positions — and those are **not** all
members of the known-safe write-expression set, so FormAD correctly
refuses to drop the safeguards (the paper's negative example).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ir.parser import parse_procedure
from ..ir.program import Procedure

#: The paper's grid strides: x-stride 1, y-stride 120, z-stride 14400.
Y_STRIDE = 120
Z_STRIDE = 14400

#: D3Q19 directions: (name, stream offset in flattened cells), exactly
#: the 19 safe write expressions of the paper's listing.
DIRECTIONS: List[Tuple[str, int]] = [
    ("c", 0),
    ("n", Y_STRIDE),
    ("s", -Y_STRIDE),
    ("e", 1),
    ("w", -1),
    ("t", Z_STRIDE),
    ("b", -Z_STRIDE),
    ("ne", Y_STRIDE + 1),
    ("nw", Y_STRIDE - 1),
    ("se", -Y_STRIDE + 1),
    ("sw", -Y_STRIDE - 1),
    ("nt", Z_STRIDE + Y_STRIDE),
    ("nb", -Z_STRIDE + Y_STRIDE),
    ("st", Z_STRIDE - Y_STRIDE),
    ("sb", -Z_STRIDE - Y_STRIDE),
    ("et", Z_STRIDE + 1),
    ("eb", -Z_STRIDE + 1),
    ("wt", Z_STRIDE - 1),
    ("wb", -Z_STRIDE - 1),
]

#: One-cell collision weight per direction (BGK-flavored).
WEIGHTS = {name: (1.0 / 3.0 if name == "c" else
                  1.0 / 18.0 if abs(off) in (1, Y_STRIDE, Z_STRIDE) else
                  1.0 / 36.0)
           for name, off in DIRECTIONS}


def build_lbm(sweeps: int = 1) -> Procedure:
    """The stream-collide kernel over the interior cells."""
    dir_params = "\n".join(
        f"  integer, intent(in) :: {name}" for name, _ in DIRECTIONS)
    # Collision: relax each distribution toward 1/19 of the local
    # density, then stream into the neighbor slot of dstgrid.
    reads = " + ".join(f"srcgrid({name} + n_cell_entries * 0 + i)"
                       for name, _ in DIRECTIONS)
    writes = "\n".join(
        f"      dstgrid({name} + n_cell_entries * {off} + i) = "
        f"(1.0 - omega) * srcgrid({name} + n_cell_entries * 0 + i) "
        f"+ omega * {WEIGHTS[name]!r} * rho"
        for name, off in DIRECTIONS)
    src = f"""
subroutine lbm(srcgrid, dstgrid, omega, n_cell_entries, ifirst, ilast{"".join(", " + name for name, _ in DIRECTIONS)})
  real, intent(in) :: srcgrid(*)
  real, intent(inout) :: dstgrid(*)
  real, intent(in) :: omega
  integer, intent(in) :: n_cell_entries
  integer, intent(in) :: ifirst
  integer, intent(in) :: ilast
{dir_params}
  real :: rho

  do sweep = 1, {sweeps}
    !$omp parallel do private(rho)
    do i = ifirst, ilast
      rho = {reads}
{writes}
    end do
  end do
end subroutine lbm
"""
    return parse_procedure(src)


def make_lbm_workload(ncells: int = 600, seed: int = 0) -> Dict[str, object]:
    """A scaled-down flat grid with the paper's direction layout.

    ``ncells`` interior cells are updated; the flat arrays carry enough
    halo for the largest stream offset (±(Z_STRIDE + Y_STRIDE) cells).
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    max_off = max(abs(off) for _, off in DIRECTIONS)
    bases = {}
    cursor = 0
    total_span = 19 * (ncells + 2 * max_off + 1)
    for name, _ in DIRECTIONS:
        # Each direction owns one contiguous block of n_cell_entries
        # slots; base points at the block start offset by the halo.
        bases[name] = cursor + max_off + 1
        cursor += ncells + 2 * max_off + 1
    n_cell_entries = 1  # flat layout: offsets are in cells already
    size = cursor
    return {
        "srcgrid": rng.uniform(0.1, 1.0, size),
        "dstgrid": np.zeros(size),
        "omega": 1.2,
        "n_cell_entries": n_cell_entries,
        "ifirst": 1,
        "ilast": ncells,
        **bases,
    }
