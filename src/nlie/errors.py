"""Exceptions shared across the package."""


class DimensionMismatch(ValueError):
    """Operands live over different dimensions, arities or variable counts."""


class InvalidStructure(ValueError):
    """A mathematical precondition on the input fails (e.g. the fundamental
    identity, the Maurer-Cartan equation, or a representation condition).

    Carries an optional machine-readable witness so callers can report the
    offending basis tuple instead of a bare message.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class OutputTooLarge(ValueError):
    """A rational in the output has more digits than the interpreter will
    convert to a string (``sys.get_int_max_str_digits()``)."""
