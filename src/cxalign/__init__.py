"""Desk-scale clinical text-image alignment laboratory."""

import resource

__version__ = "0.1.0"


def peak_rss_mb() -> float:
    """The process's peak resident memory so far, in MB to one decimal;
    Linux reports ru_maxrss in KiB. CLI manifests and training epoch records
    both report it."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
