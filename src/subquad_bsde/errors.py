"""Exception types shared across the toolkit."""


class InvalidCoefficientError(ValueError):
    """A coefficient function violates its declared sign/integrability contract."""


class ConfigurationError(ValueError):
    """An experiment configuration is malformed or references unknown catalog ids."""

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class UnsupportedDimensionError(ValueError):
    """A check that is only defined for scalar noise was requested with d != 1."""


class SolverDivergedError(RuntimeError):
    """The implicit per-step update failed to settle; ``rung`` names the
    truncation (n, q) when the failing solve was one rung of a ladder, and
    ``cause`` says why: the residual rose along a step (an ill-posed step,
    dt dg/dy >= 1), or the step had not settled within the sweep cap."""

    def __init__(self, step_index, gap, rung=None, cause=None):
        self.step_index = step_index
        self.gap = gap
        self.rung = rung
        self.cause = cause
        where = f"step {step_index}" if rung is None else f"step {step_index}, rung {rung}"
        why = "" if cause is None else f": {cause}"
        super().__init__(f"fixed point diverged at {where} (last gap {gap:.3e}){why}")


class IterationLimitError(RuntimeError):
    """Picard iteration hit its cap before the sup-change tolerance."""

    def __init__(self, iterations, gap):
        self.iterations = iterations
        self.gap = gap
        super().__init__(f"no convergence after {iterations} sweeps (last gap {gap:.3e})")


class PreconditionViolationError(ValueError):
    """A caller-asserted hypothesis fails on the sampled data, with witnesses."""

    def __init__(self, message, witnesses=()):
        self.witnesses = list(witnesses)
        super().__init__(message)


class InvalidHypothesisError(ValueError):
    """A scalar function violates the hypotheses it declared, with a witness point."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)
