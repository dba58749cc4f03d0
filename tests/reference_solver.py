"""Reference product and order of stable extensions for the tests: the
solver's per-component labellings combined as it did before extensions
became member masks, one sorted list per product, the lists sorted. It
gates the order and content of semantics.stable_extensions, whose
product of ints is built in that order, block by block, and sorted only
inside a block of components whose first differences interleave."""

import itertools

from normargue.semantics import _UNDET, _components, _stable_labellings


def reference_stable(af):
    attackers, victims = af._graph
    label = [_UNDET] * af.n_args
    always, choices = [], []
    for part in _components(attackers, victims):
        if len(part) == 1 and not attackers[part[0]] and not victims[part[0]]:
            always.append(part[0])
            continue
        found = _stable_labellings(part, attackers, victims, label)
        if not found:
            return []
        choices.append([[i for i in part if m >> i & 1] for m in found])
    return sorted(sorted(itertools.chain(always, *pick))
                  for pick in itertools.product(*choices))
