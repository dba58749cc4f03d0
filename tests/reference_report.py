"""Reference JSON report for the tests: the `run --json` report and the
`export --format json` payload as the dicts the CLI built before it wrote
rows from templates, made here from the pipeline's objects with no code of
the writer. The CLI's output must be json.dumps(..., indent=2) of these,
byte for byte."""

from normargue import (grounded_extension, normalize, parse,
                       stable_extensions)
from normargue.semantics import defeat_sort_key


def argument_dict(a):
    return {
        "id": a.id,
        "conclusion": str(a.conclusion),
        "premises": sorted(a.premise_ids),
        "sub_args": list(a.sub_args),
        "top_rule": a.top_rule,
        "defeasible": a.defeasible,
        "plausible": a.plausible,
        "depth": a.depth,
    }


def defeat_dict(d):
    return {"attacker": d.attacker, "target": d.target,
            "kind": d.kind.value, "locus": d.locus}


def extension_lists(masks, n_args):
    """The member lists of extension masks over n_args arguments, read bit
    by bit."""
    return [[i for i in range(n_args) if e >> i & 1] for e in masks]


def report(theory, args, defeats, af, truncated, semantics, query_texts):
    """The report of `run --json` for a pipeline's theory, arguments,
    defeats, framework and truncation flag."""
    if semantics == "grounded":
        extensions = [sorted(grounded_extension(af))]
    else:
        extensions = extension_lists(stable_extensions(af), af.n_args)
    queries = []
    for text in query_texts:
        f = normalize(parse(text), theory.weak_mode)
        holders = {a.id for a in args if a.conclusion == f}
        held = [not holders.isdisjoint(e) for e in extensions]
        queries.append({
            "formula": str(f),
            "credulous": any(held),
            "skeptical": bool(held) and all(held),
        })
    return {
        "schema": 1,
        "semantics": semantics,
        "theory": {
            "agents": list(theory.agents),
            "premises": len(theory.premises),
            "rules": len(theory.rules),
            "contraries": len(theory.contraries),
        },
        "arguments": [argument_dict(a) for a in args],
        "defeats": [defeat_dict(d)
                    for d in sorted(defeats, key=defeat_sort_key)],
        "extensions": extensions,
        "queries": queries,
        "truncated": truncated,
    }


def export_payload(af, defeats):
    """The payload of `export --format json`."""
    return {"schema": 1, "n_args": af.n_args,
            "defeats": [defeat_dict(d)
                        for d in sorted(defeats, key=defeat_sort_key)]}
