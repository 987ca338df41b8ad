"""Physical constants (SI), shared by the unit-handling modules.

CODATA 2022 values (exact SI definitions for C and KB).
"""

C = 299792458.0                   # speed of light, m/s
HBAR = 1.0545718176461565e-34     # reduced Planck constant, J s
KB = 1.380649e-23                 # Boltzmann constant, J/K
EPSILON_0 = 8.8541878188e-12      # vacuum permittivity, F/m

__all__ = ["C", "EPSILON_0", "HBAR", "KB"]
