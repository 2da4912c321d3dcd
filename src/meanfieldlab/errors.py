"""Exception types shared across the lab."""


class ValidationError(ValueError):
    """Bad user input: configs, model parameters, measure shapes."""


class DivergenceError(RuntimeError):
    """A simulated state became non-finite.

    Carries enough context to locate the blow-up: the replica id of the noise
    it ran on, the step, and the particle label.
    """

    def __init__(self, step: int, particle: int | None = None, detail: str = "",
                 replica: int | None = None):
        self.step = step
        self.particle = particle
        self.replica = replica
        where = (f"replica {replica}, " if replica is not None else "") + f"step {step}" \
            + (f", particle {particle}" if particle is not None else "")
        super().__init__(f"non-finite state at {where}" + (f" ({detail})" if detail else ""))
