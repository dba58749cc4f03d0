"""Reference stable extensions for the tests, found apart from the solver:
the weak components of the defeat graph, read from af.defeats, and among
the conflict-free subsets of each component those that attack exactly the
members left out. The extensions are the unions of one such set per
component, as ascending member lists, the lists sorted. It gates the
content and order of semantics.stable_extensions, whose grounded
labelling, component search and product of ints it shares nothing with."""

import itertools


def weak_components(n, edges):
    """The weakly connected components of the graph on range(n), each an
    ascending list, in order of their least member."""
    root = list(range(n))

    def find(i):
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for a, b in edges:
        root[find(a)] = find(b)
    parts = {}
    for i in range(n):
        parts.setdefault(find(i), []).append(i)
    return list(parts.values())


def stable_sets(part, attacks, attacked):
    """The conflict-free subsets of part, as masks, whose victims in part
    are exactly the members of part they leave out. attacks[i] and
    attacked[i] are the masks of i's victims and attackers."""
    whole = sum(1 << i for i in part)
    found = []
    todo = [(0, 0, 0)]  # (members, their victims, position in part)
    while todo:
        chosen, hit, k = todo.pop()
        if k == len(part):
            if hit & whole == whole & ~chosen:
                found.append(chosen)
            continue
        i = part[k]
        todo.append((chosen, hit, k + 1))
        if not (attacks[i] | attacked[i]) & (chosen | 1 << i):
            todo.append((chosen | 1 << i, hit | attacks[i], k + 1))
    return found


def reference_stable(af):
    edges = [(d.attacker, d.target) for d in af.defeats]
    attacks, attacked = [0] * af.n_args, [0] * af.n_args
    for a, b in edges:
        attacks[a] |= 1 << b
        attacked[b] |= 1 << a
    choices = []
    for part in weak_components(af.n_args, edges):
        found = stable_sets(part, attacks, attacked)
        if not found:
            return []
        choices.append([[i for i in part if m >> i & 1] for m in found])
    return sorted(sorted(itertools.chain(*pick))
                  for pick in itertools.product(*choices))
