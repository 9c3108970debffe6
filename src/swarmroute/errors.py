"""The exception every input check in the package raises."""


class InvalidConfig(ValueError):
    """An input value violates a precondition; the CLI exits 2 on it."""
