"""Exception types shared across the package."""


class WeakmeasError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(WeakmeasError):
    """Operands have incompatible shapes or dimensions."""


class NotHermitianError(WeakmeasError):
    """Matrix required to be Hermitian deviates beyond tolerance."""


class NormalizationError(WeakmeasError):
    """State vector required to be normalized is not."""


class GridExtentError(WeakmeasError):
    """Pointer grid cannot hold the requested state or shift."""


class MissingAxisError(WeakmeasError):
    """Operation needs a device axis the state does not carry."""


class OrthogonalSelectionError(WeakmeasError):
    """Post-selection state is orthogonal to the initial state."""


class EmptyPostSelectionError(WeakmeasError):
    """No records survived post-selection."""


class ScenarioError(WeakmeasError):
    """Scenario description is malformed or inconsistent."""


class OutputError(WeakmeasError):
    """An output file cannot be written."""
