"""Exact-arithmetic tropical cohomology of smooth toric varieties.

Subpackages:
  exactla    -- rational/integer linear algebra (ranks, kernels, SNF, wedges)
  fans       -- cones, fans, orbit lattices, star subdivision, built-in zoo
  tropspace  -- the compactified fan space as a stratified cell complex
  cohomology -- tropical cohomology from one block CochainComplex class:
                Betti tables from its orbit complex over the strata N_sigma,R
                (compactly supported on open fans, then Poincare duality),
                representatives from its complex over the cells
  weightss   -- the weight spectral sequence of a smooth toric variety
  cycles     -- Minkowski weights, cycle classes, and intersection pairings
  record     -- the immutable value records the other modules define
  cli        -- command-line interface
"""

# The elimination core is pure Python; run records report this name.
BACKEND = "python"

__all__ = ["BACKEND"]
__version__ = "0.1.0"
