"""Exception types shared across the package."""


class InvalidArgument(ValueError):
    """A precondition on an operation's arguments was violated.  Every
    input error below is one, so the CLI maps them all to exit code 2."""


class NotAGroup(InvalidArgument):
    """A Cayley table fails a group axiom.

    Carries the failing axiom name and a witness tuple of element indices.
    """

    def __init__(self, axiom, witness):
        super().__init__(f"not a group: {axiom} fails at {witness}")
        self.axiom = axiom
        self.witness = witness


class SchemaError(InvalidArgument):
    """A data file, or the text of a spec, does not match its documented
    format."""


class CorruptTable(InvalidArgument):
    """An imported character table violates a table invariant."""


class WrongFormulation(InvalidArgument):
    """The LP formulation requires a conjugation-closed connection set;
    callers with general connection sets should export formulation (A) or (C)."""


class NeedsIrreps(InvalidArgument):
    """The requested check needs full irreducible representation matrices,
    not just a character table."""


class NumericalFailure(RuntimeError):
    """Float-mode computation stalled; no wrong answer was returned."""


class SizeLimit(InvalidArgument):
    """The instance exceeds a documented size bound."""


class NotTransitive(InvalidArgument):
    """A group action is not transitive; carries the orbit partition."""

    def __init__(self, orbits):
        super().__init__(f"action is not transitive: {len(orbits)} orbits")
        self.orbits = orbits


class NotAutomorphism(InvalidArgument):
    """A group element does not act by graph automorphisms."""

    def __init__(self, element, edge):
        super().__init__(
            f"element {element} does not preserve adjacency on edge {edge}")
        self.element = element
        self.edge = edge
