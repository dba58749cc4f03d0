"""Reference stable check for the tests: the direct reading of the two
stable conditions over the defeat set, with no per-framework masks. It
gates semantics.verify_extension on every subset of seeded random
frameworks."""


def reference_verify(af, ext):
    inside = set(ext)
    for d in af.defeats:
        if d.attacker in inside and d.target in inside:
            return False
    attacked = {d.target for d in af.defeats if d.attacker in inside}
    return all(i in attacked for i in range(af.n_args) if i not in inside)
