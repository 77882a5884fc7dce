"""Every rounding band of srk, named once.

Each constant bounds one floating-point quantity, which the comment above it
names with its readers.  Bands that guard the same quantity share one name;
equal values that guard different quantities do not.  A bound written
"times s" is multiplied by the scale s that its caller computes.
"""

# --- traces ----------------------------------------------------------------

# ||tr| - 2| read as 2: handle signs, sign invariant, every |tr| <= 2 verdict
TRACE_BAND = 1e-9

# --- lifts and the Euler class ---------------------------------------------

# relator distance to +-I, times _relation_scale (psl2r), e^{max a} (pants)
RELATOR_TOL = 1e-9
# a relator's boundary shift off 2*pi*Z, and the margin every angle-model
# wrap keeps below pi (psl2r.euler_class_closed)
DECK_SHIFT_TOL = 1e-6
# the same bounds allowed per unit of psl2r._relation_scale
DECK_SHIFT_PAD = 3e-10

# --- half-lengths and twists -----------------------------------------------

# domain excursion of an acos/acosh argument that hyptrig absorbs
CLAMP = 1e-12
# |delta| near the flat stratum that the triangle/self-hexagon solvers refuse
DELTA_BAND = 1e-12
# |delta| that build_pants and pants_trace_sign treat as the flat stratum
FLAT_BAND = 1e-9
# rounding of a normalised twist: one this close to -a_i moves to +a_i, and
# one further outside [-a_i, a_i] or off t_i mod 2 a_i is refused
TWIST_EDGE = 1e-13

# --- the search ------------------------------------------------------------

# gap between a certificate's replayed curve trace and its recorded one
REPLAY_TOL = 1e-6
# half-length excess over B2_HALF that search_nonhyperbolic still accepts
B2_HALF_SLACK = 1e-12
# twist past the bandwidth window's upper cut that its scan still reaches
WINDOW_END_SLACK = 1e-9
# twist below the bandwidth window's lower cut that a candidate may take
WINDOW_START_SLACK = 1e-12
# drift of kappa along a torus reduction, times max(1, |kappa|)
KAPPA_DRIFT = 1e-9
# fall of max |coordinate| that counts as a torus descent step
DESCENT_MARGIN = 1e-12

# --- grid re-verification (inequalities) -----------------------------------

# residual of the equilateral twist-length floor identity at the largest b3
LAMBDA_FLOOR_RESID = 1e-9
# residual of the flat delta_3 identity over its grid
FLAT_IDENTITY_RESID = 1e-9
# a2 below lam that region X4's mask still keeps
X4_MASK_SLACK = 1e-9
