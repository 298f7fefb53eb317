"""Dispersive space-time norms, sharpness packets, and block-norm estimation.

The subpackage re-exports nothing; each name is imported from the module
that defines it: spacetime (the space-time grid, its transforms and the
X^{s,b} norm), knapp (Knapp-box sharpness sweeps, which build on
spacetime), multipliers (the trilinear multiplier and its Z-norm
estimates) and blocks (sampled dyadic block-norm checks, which build on
multipliers).  The knapp command loads only the first two, the blocks
command only the last two.
"""
