"""Exception types shared across the lab, and its rule for a count."""

import numpy as np


class ValidationError(ValueError):
    """Bad user input: configs, model parameters, measure shapes."""


class DivergenceError(RuntimeError):
    """A simulated state became non-finite.

    Carries enough context to locate the blow-up: the replica id of the noise
    it ran on, the step, and the particle (its row in the state).
    """

    def __init__(self, step: int, particle: int | None = None, replica: int | None = None):
        self.step = step
        self.particle = particle
        self.replica = replica
        where = (f"replica {replica}, " if replica is not None else "") + f"step {step}" \
            + (f", particle {particle}" if particle is not None else "")
        super().__init__(f"non-finite state at {where}")


def count_errors(name: str, value) -> list[str]:
    """Why `value` is no count `name`: [] if it is an int or numpy integer >= 1, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        return [f"{name} must be an integer, not {value!r}"]
    return [] if value >= 1 else [f"{name} must be >= 1, not {value!r}"]
