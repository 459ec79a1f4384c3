"""Importable ``py:`` sweep targets used by the sweep-engine tests."""


def seeded_value(scale: int, seed: int = 0) -> dict:
    """Echo back the kwargs the engine resolved for this spec."""
    return {"seed": seed, "scale": scale}


def obs_channels(tag: int = 0) -> tuple:
    """The trace, events and profiler ``ENABLED`` flags where this runs."""
    from repro.obs import events, profiler, trace

    return (trace.ENABLED, events.ENABLED, profiler.ENABLED)
