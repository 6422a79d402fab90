"""Safety-critical control toolkit: barrier-function safety filters,
projected-disturbance quantification, episodic residual learning, and
projection-to-state safety certificates."""

__version__ = "0.1.0"
