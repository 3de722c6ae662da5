"""Exception hierarchy shared across the engine."""


class EqsatError(Exception):
    pass


class SExprSyntaxError(EqsatError):
    """Malformed S-expression input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset

    def __str__(self):
        return f"{self.args[0]} (at offset {self.offset})"


class ContractViolation(EqsatError):
    pass


class UnknownBuiltin(EqsatError):
    pass


class RuleSyntaxError(EqsatError):
    pass


class UnboundRhsVariable(RuleSyntaxError):
    def __init__(self, name: str):
        super().__init__(f"variable ~{name} appears on the RHS but not on the LHS")
        self.name = name


class UnknownTheory(EqsatError, KeyError):
    """No bundled theory has the name; a KeyError too, as a failed lookup."""

    __str__ = Exception.__str__  # KeyError's would quote the message


class UnknownPredicate(EqsatError):
    pass


class UnsupportedRuleKind(EqsatError):
    pass


class UnknownId(EqsatError):
    pass


class CapacityExceeded(EqsatError):
    """A graph reached a size limit; `kind` names the limit, as the stop
    reason a saturation run gives for it: "enode-limit" or "eclass-limit"."""

    def __init__(self, message: str, kind: str):
        super().__init__(message)
        self.kind = kind


class SegmentUnsupported(EqsatError):
    pass


class InconsistentClass(EqsatError):
    pass


class AnalysisDiverged(EqsatError):
    pass


class Unextractable(EqsatError):
    pass
