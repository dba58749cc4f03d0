"""Reference CONTRARY split for the tests: the loader's earlier loop, which
tries every ~ of the body from the left as the separator and lexes and
parses both sides again at each. Quadratic in the body's length, but
independent of formula.parse_contrary, which it gates on the fixtures and
on seeded bodies."""

from normargue import parse


def reference_contrary(body):
    """The pair at the first ~ where both sides parse, or None."""
    for i, ch in enumerate(body):
        if ch != "~":
            continue
        left, right = body[:i], body[i + 1:]
        if not left.strip() or not right.strip():
            continue
        try:
            return parse(left), parse(right)
        except SyntaxError:
            continue
    return None
