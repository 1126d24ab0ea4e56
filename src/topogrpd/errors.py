"""Exception types shared by all modules.

The CLI maps these onto exit codes; see cli.py.
"""


class InputError(ValueError):
    """Malformed or ill-typed input (bad JSON, bad subset, sort clash, ...)."""


class FormulaError(InputError):
    """Lex/parse/sort error in a formula, carrying its source position
    when one is known (None for a sort error found after parsing)."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class CapExceeded(RuntimeError):
    """A listed family outgrew its cap: opens, subobjects, (open)
    subgroupoids or definable sets."""


class NotModelPresented(InputError):
    """An operation requiring model-groupoid presentation got plain data."""


class CertificateError(RuntimeError):
    """A construction whose output must carry a passing certificate failed it."""


class OracleDisagreement(RuntimeError):
    """Two routes that are proven to coincide returned different answers.

    This is a bug sentinel, never a verdict: surfacing it loudly is the
    point of computing everything twice.
    """
