"""Exception types shared across the package."""


class MaterialError(ValueError):
    """A material violates one of the constitutive inequalities."""


class RootNotBracketed(ArithmeticError):
    """An expanding bracket search exhausted its range without a sign change.

    Raised by the tangency and threshold root finders; signals an invalid
    material or a numerical breakdown, not bad user data.
    """


class NoBracket(ArithmeticError):
    """The solver's monotone scan failed to straddle the target velocity.

    The wave-curve family covers the phase plane univalently, so this is an
    internal error and is never expected for finite inputs.
    """


class NonMonotone(ArithmeticError):
    """Sampled solver residuals were not monotone in the middle stress.

    Monotone coverage is a structural property of the wave-curve family;
    this error is a diagnostic for numerical breakdown.
    """
