"""Exact-arithmetic tropical cohomology of smooth toric varieties.

Subpackages:
  exactla    -- rational/integer linear algebra (ranks, kernels, SNF, wedges)
  fans       -- cones, fans, orbit lattices, star subdivision, built-in zoo
  tropspace  -- the compactified fan space as a stratified cell complex
  cohomology -- cellular tropical cohomology, Betti tables from the stratum
                Morse complex, by duality on open supports
  weightss   -- the weight spectral sequence of a smooth toric variety
  cycles     -- Minkowski weights, cycle classes, and intersection pairings
  record     -- the immutable value records the other modules define
  cli        -- command-line interface
"""

# The elimination core is pure Python; run records report this name.
BACKEND = "python"

__all__ = ["BACKEND"]
__version__ = "0.1.0"
