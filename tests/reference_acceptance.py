"""Reference acceptance for the tests: the reading that semantics.acceptance
made before it read the extensions' transposed table, one mask of a
conclusion's holders tested against each extension's member mask. It gates
the table-based acceptance on seeded random theories and frameworks."""


def reference_acceptance(args, extensions, conclusion):
    """(credulous, skeptical) acceptance of a conclusion over member masks.
    Skeptical acceptance over zero extensions is False, not vacuously
    true."""
    holders = sum(1 << a.id for a in args if a.conclusion == conclusion)
    return (any(map(holders.__and__, extensions)),
            bool(extensions) and all(map(holders.__and__, extensions)))
