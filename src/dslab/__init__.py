"""Pseudospectral laboratory for the elliptic-elliptic Davey-Stewartson system.

The system couples a cubic Schroedinger equation with a nonlocal potential,

    i u_t + Lap u = c1 |u|^2 u + c2 K(|u|^2) u,

where K is the Fourier multiplier with symbol xi_1^2/|xi|^2.  The package
provides the periodic spectral substrate, an exact-substep split-step solver
(conservative and forced/damped), diagnostics that measure how much smoother
the Duhamel part u - exp(it Lap) u0 is than the data, a discretized space-time
norm engine with Knapp-box sharpness sweeps and dyadic block-norm checks, and
long-time dissipative (absorbing ball / compactness) experiments.

The package re-exports nothing: each name is imported from the module that
defines it (spectral_core, ds_solver, smoothing_diagnostics, attractor_lab,
xsb_analysis.knapp, ...), so importing one module loads only what that
module needs.  The command line relies on this to load, per command, only
the modules the command runs.
"""

__version__ = "0.1.0"
