import copy
import pickle
import random

import pytest

from normargue import (And, Atom, Box, Diamond, Implies, Know, Not, Oblig,
                       Or, Perm, Power, Right, RuleAtom, Stit, Theory,
                       UnknownOperator, conflict_class, contrary, normalize,
                       parse, print_formula, subformulas)
from normargue import cli, formula
from normargue.formula import (MAX_NESTING, _cform, _Parser, names_in,
                               parses_back, printed_nesting)

import reference_formula as ref
from helpers import (ABORTION, DOCTOR, KNIFE, conflict_pair, deep_shapes,
                     random_formula, structure)


# ---------------------------------------------------------------- parsing

def test_parse_atoms():
    assert parse("p") == Atom("p")
    assert parse("right_to_life(foetus)") == Atom("right_to_life", ("foetus",))
    assert parse("f(x, y)") == Atom("f", ("x", "y"))


def test_parse_precedence():
    assert parse("~p & q | r -> s") == Implies(
        Or(And(Not(Atom("p")), Atom("q")), Atom("r")), Atom("s"))
    assert parse("a -> b -> c") == Implies(
        Atom("a"), Implies(Atom("b"), Atom("c")))
    assert parse("a & b & c") == And(And(Atom("a"), Atom("b")), Atom("c"))
    assert parse("a | b | c") == Or(Or(Atom("a"), Atom("b")), Atom("c"))
    assert parse("(a -> b) -> c") == Implies(
        Implies(Atom("a"), Atom("b")), Atom("c"))


def test_parse_modalities():
    assert parse("[] p") == Box(Atom("p"))
    assert parse("<> p") == Diamond(Atom("p"))
    assert parse("K_a(p)") == Know("a", Atom("p"))
    assert parse("K_a p") == Know("a", Atom("p"))
    assert parse("[a] p") == Stit("a", Atom("p"))
    assert parse("R_a p") == Right("a", Atom("p"))
    assert parse("Power_{a,b}(p)") == Power("a", "b", Atom("p"))
    assert parse("@r1") == RuleAtom("r1")
    assert parse("@fcp#1") == RuleAtom("fcp#1")


def test_parse_deontic_variants():
    assert parse("O p") == Oblig(None, None, Atom("p"))
    assert parse("O_a p") == Oblig("a", None, Atom("p"))
    assert parse("O_{a,b} p") == Oblig("a", "b", Atom("p"))
    assert parse("P p") == Perm(None, Atom("p"))
    assert parse("P_a p") == Perm("a", Atom("p"))


def test_parse_nested_modal_strings():
    assert parse("P_c K_c(customer)") == Perm("c", Know("c", Atom("customer")))
    assert parse("O_{b,a} [b] K_a(data)") == Oblig(
        "b", "a", Stit("b", Know("a", Atom("data"))))


def test_parse_errors_carry_offsets():
    for bad in ("", "p &", "(p", "p q", "& p", "O_{a,} p"):
        with pytest.raises(SyntaxError) as err:
            parse(bad)
        assert "offset" in str(err.value) or "empty" in str(err.value)


def test_unknown_operator():
    with pytest.raises(UnknownOperator):
        parse("K_(p)")
    with pytest.raises(UnknownOperator):
        parse("Power_a(p)")
    # not an operator prefix at all: plain atom named X_a
    assert parse("X_a(p)") == Atom("X_a", ("p",))


def test_head_grammar():
    # each head in each agent shape it takes prints and reads back as the
    # same node; a bare head of a modality that needs an agent is an atom
    # name, and a malformed head is refused with its offset
    p = Atom("p", ())
    written = {Not(p): "~p", Box(p): "[](p)", Diamond(p): "<>(p)",
               Stit("a", p): "[a](p)", Know("a", p): "K_a(p)",
               Know("a_b", p): "K_a_b(p)", Right("a", p): "R_a(p)",
               Perm(None, p): "P(p)", Perm("a", p): "P_a(p)",
               Oblig(None, None, p): "O(p)", Oblig("a", None, p): "O_a(p)",
               Oblig("a", "b", p): "O_{a,b}(p)",
               Power("a", "b", p): "Power_{a,b}(p)"}
    for f, text in written.items():
        assert print_formula(f) == text
        assert parse(text) is f
        assert parse(print_formula(Not(f))) is Not(f)
    for name in ("K", "R", "Power", "Powerx", "X_a", "_a"):
        assert parse(name) is Atom(name, ())
    errors = {
        "K_ p": (UnknownOperator, "offset 0: modal prefix 'K_' lacks an agent"),
        "P_ p": (UnknownOperator, "offset 0: modal prefix 'P_' lacks an agent"),
        "R_{a} p": (UnknownOperator,
                    "offset 0: modal prefix 'R_' lacks an agent"),
        "Power_a p": (UnknownOperator,
                      "offset 0: power must be written Power_{a,b}"),
        "O_ p": (UnknownOperator,
                 "offset 0: 'O_' requires a braced agent list"),
        "Power_ p": (UnknownOperator,
                     "offset 0: 'Power_' requires a braced agent list"),
        "Power_{a} p": (SyntaxError,
                        "offset 8: expected one of {,}, found '}'"),
        "O_{a,b,c} p": (SyntaxError,
                        "offset 6: expected one of {}}, found ','"),
        "O_{a,} p": (SyntaxError,
                     "offset 5: expected one of {ident}, found '}'"),
        "O_{a} p": (SyntaxError, "offset 4: expected one of {,}, found '}'"),
        "[a p": (SyntaxError, "offset 3: expected one of {]}, found 'p'"),
        "K p": (SyntaxError,
                "offset 2: expected one of {end of input}, found 'p'"),
        "p $ q": (SyntaxError, "offset 2: unexpected character '$'"),
    }
    for text, (kind, message) in errors.items():
        with pytest.raises(SyntaxError) as err:
            parse(text)
        assert (type(err.value), str(err.value)) == (kind, message), text


def test_parse_nesting_limit():
    for name, text in deep_shapes(MAX_NESTING).items():
        f = parse(text)
        assert len(list(subformulas(f))) == (
            MAX_NESTING + 1 if name in ("not", "box") else
            1 if name == "parens" else 2 * MAX_NESTING + 1), name
        with pytest.raises(SyntaxError, match=r"offset \d+: formula nests "
                           "deeper than %d levels" % MAX_NESTING):
            parse(deep_shapes(MAX_NESTING + 1)[name])


def test_parse_nesting_counts_every_level():
    # prefixes, parentheses and connectives add up; a left operand is
    # counted at the depth its connective puts it
    at = MAX_NESTING - 2
    for text in ("~(" + "~" * at + "p)", "K_a(" + deep_shapes(at)["and"] + ")",
                 "(" + "~" * at + "p) & q",
                 "~" * (MAX_NESTING - 1) + "p -> q"):
        parse(text)
        with pytest.raises(SyntaxError, match="nests deeper"):
            parse("~" + text)
    with pytest.raises(SyntaxError, match="nests deeper"):
        parse("(" * 5000 + "p" + ")" * 5000)
    # the offset names the connective that goes past the limit
    text = "p &" + " q &" * MAX_NESTING + " r"
    with pytest.raises(SyntaxError, match="offset %d: formula nests deeper"
                       % text.rindex("&")):
        parse(text)


def test_oblig_toward_requires_agent():
    with pytest.raises(ValueError):
        Oblig(None, "b", Atom("p"))
    with pytest.raises(ValueError):
        Oblig(toward="b", agent=None, f=Atom("p"))


# -------------------------------------------------------------- interning

def test_same_structure_is_the_same_node():
    # positionally; Atom and Oblig also by keyword, Atom with its default
    p = Atom("p")
    assert p is Atom("p", ()) is Atom(name="p") is Atom("p", args=())
    assert Atom("f", ("a", "b")) is Atom(args=("a", "b"), name="f")
    assert Atom("f", ("a", "b")) is not Atom("f", ("b", "a"))
    assert Oblig("a", None, p) is Oblig(f=p, toward=None, agent="a")
    assert Box(p) is not Diamond(p) and Box(p) == Box(Atom("p"))
    rng = random.Random(5)
    for _ in range(500):
        f = random_formula(rng, depth=rng.randint(0, 5))
        assert parse(str(f)) is f
        assert type(f)(*vars(f).values()) is f
        assert hash(f) == object.__hash__(f)
    with pytest.raises(TypeError):
        Atom()
    with pytest.raises(TypeError):
        Not(p, p)
    with pytest.raises(TypeError):
        Box(g=p)
    with pytest.raises(TypeError):
        Box(f=p)


def test_interned_nodes_compare_by_identity():
    # no node class defines or generates its own == or hash
    for t in formula._NODE_TYPES:
        for name in ("__eq__", "__hash__"):
            assert getattr(t, name) is getattr(object, name), (t, name)
    p = parse("K_a(p & [](q -> r))")
    assert p == parse("K_a(p & [](q -> r))")
    assert p != parse("K_a(p & [](r -> q))")
    assert p != "K_a(p & [](q -> r))"
    with pytest.raises(AttributeError):
        p.agent = "b"


def test_copy_and_pickle_return_the_same_node():
    rng = random.Random(17)
    for _ in range(200):
        f = random_formula(rng, depth=rng.randint(0, 5))
        assert copy.copy(f) is f and copy.deepcopy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f
        assert copy.deepcopy([f, (f, 1)])[1][0] is f


def test_caches_live_outside_the_fields():
    # vars(f) holds the fields only, and a cache slot never holds its own
    # node: that would be a cycle only the cycle collector frees
    rng = random.Random(23)
    slots = formula.Formula.__slots__[1:]
    for _ in range(1000):
        f = random_formula(rng, depth=rng.randint(0, 5))
        contrary(f, Not(f), Theory(agents=(), premises=(), rules=(),
                                   contraries=(), weak_mode=True))
        contrary(f, Not(f))
        for x in subformulas(f):
            assert list(vars(x)) == list(type(x)._fields)
            for slot in slots:
                assert getattr(x, slot, None) is not x, (x, slot)
    d = parse("<>p")
    n = normalize(d)
    assert d._normal is n and n._normal is None  # n is its own normal form


def test_intern_table_keeps_no_dead_nodes(capsys):
    # the table holds nodes weakly: what a run built is gone when it ends
    before = len(formula._table)
    for path in (DOCTOR, ABORTION, KNIFE):
        for flags in ((), ("--weak-mode",)):
            assert cli.main(["run", str(path), "--json", *flags]) == 0
    capsys.readouterr()
    assert len(formula._table) <= before
    f = parse("atom_built_only_here & q")
    key = (And, f.left, f.right)
    assert formula._table[key]() is f
    del f
    assert key not in formula._table


# --------------------------------------------------------------- printing

CANONICAL = [
    "~~p",
    "[](illness -> sensitive)",
    "P_c K_c(customer)",
    "O_{b,a} [b] K_a(data)",
    "(p -> q) -> r",
    "p & (q | r)",
    "~(p & q)",
    "O ~K_doctor(sensitive)",
    "~[] ~(K_c(customer) & misuse)",
    "p & q & r",
    "p | q -> r",
    "@rc2",
    "Power_{a,b}(p & q)",
    "[a](p)",
]


def test_print_canonical_strings():
    for text in CANONICAL:
        assert str(parse(text)) == text


def test_printer_and_walkers_match_reference():
    # the precedence table, the head function and the single pre-order
    # walker against the per-type ladders they replaced
    rng = random.Random(2024)
    seen = set()
    for i in range(20000):
        f = random_formula(rng, depth=i % 6)
        for x in subformulas(f):
            seen.add((type(x), getattr(x, "toward", None) is not None,
                      getattr(x, "agent", 0) is None,
                      bool(getattr(x, "args", 0))))
        text = print_formula(f)
        assert text == ref.print_formula(f)
        assert list(subformulas(f)) == list(ref.subformulas(f))
        assert names_in(f)[0] == ref.agents_in(f)
        assert names_in(f)[1] == ref.rule_atoms_in(f)
        assert parse(text) == f
    for case in ((Diamond, False, False, False),
                 (RuleAtom, False, False, False), (Atom, False, False, True), (Oblig, False, True, False),
                 (Oblig, False, False, False), (Oblig, True, False, False),
                 (Perm, False, True, False), (Power, True, False, False)):
        assert case in seen, case
    with pytest.raises(TypeError):
        print_formula("p")


def test_walkers_do_not_recurse():
    # formulas built directly are not bound by the parser's nesting limit
    deep = Atom("p")
    for i in range(5000):
        deep = (Know("a", deep) if i % 2
                else And(RuleAtom("r"), Oblig("b", "c", deep)))
    assert sum(1 for _ in subformulas(deep)) == 3 * 2500 + 2500 + 1
    assert names_in(deep)[0] == {"a", "b", "c"}
    assert names_in(deep)[1] == {"r"}


def test_print_parse_round_trip_random():
    rng = random.Random(99)
    for _ in range(300):
        f = random_formula(rng, depth=4)
        assert parse(str(f)) == f


# ------------------------------------------------------------- normalize

def test_normalize_double_negation():
    assert normalize(parse("~~p")) == parse("p")
    assert normalize(parse("~~~p")) == parse("~p")
    assert normalize(parse("~~~~p")) == parse("p")


def test_normalize_diamond():
    assert normalize(parse("<>p")) == parse("~[]~p")
    assert normalize(parse("<>(p & q)")) == parse("~[]~(p & q)")
    # inner double negation collapses before wrapping
    assert normalize(parse("<>~~p")) == parse("~[]~p")


def nesting(text):
    """The nesting level parse reaches on text."""
    return _Parser(text).binary(0)[1]


def test_normal_form_prints_at_most_twice_as_deep():
    # written n levels deep, a normal form prints at most 2n + 1 deep, and
    # 2n when it does not start with ~; alternating <> K_a reaches it
    rng = random.Random(2024)
    for _ in range(5000):
        f = random_formula(rng, depth=rng.randint(0, 6))
        n = nesting(print_formula(f))
        for weak in (False, True):
            g = normalize(f, weak)
            assert nesting(print_formula(g)) <= 2 * n + isinstance(g, Not), \
                (str(f), weak)
    for k in range(1, 25):
        text = "<> K_a " * k + "p"
        g = normalize(parse(text))
        assert nesting(print_formula(g)) == 2 * nesting(text) + 1
        assert parses_back(g)
    assert not parses_back(normalize(parse("<> K_a " * 25 + "p")))


PREFIX_HEADS = ("~", "[]", "<>", "K_a", "O", "O_a", "O_{a,b}", "P", "P_a",
                "[a]", "R_a", "Power_{a,b}")


def test_parses_back_matches_print_and_parse(monkeypatch):
    # the depth read from the tree against printing and parsing: the same
    # answer, and where the text parses, the level the parser reached
    rng = random.Random(1103)
    formulas = []
    for _ in range(5000):
        f = random_formula(rng, depth=rng.randint(0, 6))
        formulas += (f, normalize(f), normalize(f, weak=True))
    with monkeypatch.context() as m:  # texts past the limit, parsed anyway
        m.setattr(formula, "MAX_NESTING", 10 * MAX_NESTING)
        for n in range(98, 102):
            for shape in deep_shapes(n).values():
                formulas.append(parse(shape))
                formulas += (parse("%s(%s)" % (head, shape))
                             for head in PREFIX_HEADS)
    for pair, weak in (("<> K_a ", False), ("<> [] ", False),
                       ("P_a K_a ", True)):
        formulas += (normalize(parse(pair * k + "p"), weak)
                     for k in (23, 24, 25, 26, 49, 50))
    refused = 0
    for f in formulas:
        assert parses_back(f) == ref.parses_back(f), print_formula(f)
        if parses_back(f):
            assert printed_nesting(f) == nesting(print_formula(f))
        else:
            refused += 1
            assert printed_nesting(f) > MAX_NESTING
    assert len(formulas) > 15000 and refused > 100, (len(formulas), refused)


def test_normalize_weak_permission():
    assert normalize(parse("P_a p"), weak=True) == parse("~O_a ~p")
    assert normalize(parse("P p"), weak=True) == parse("~O ~p")
    assert normalize(parse("P_a ~p"), weak=True) == parse("~O_a p")
    assert normalize(parse("P_a p")) == parse("P_a p")


def test_normalize_leaves_implication_alone():
    f = parse("p -> ~~q")
    assert normalize(f) == parse("p -> q")
    assert isinstance(normalize(f), Implies)


def test_normalize_idempotent_and_preserving():
    rng = random.Random(7)

    def atom_names(f):
        return {g.name for g in subformulas(f) if isinstance(g, Atom)}

    for weak in (False, True):
        for _ in range(200):
            f = random_formula(rng, depth=4)
            n1 = normalize(f, weak)
            assert normalize(n1, weak) == n1
            assert names_in(n1)[0] == names_in(f)[0]
            assert atom_names(n1) == atom_names(f)


def test_normal_forms_are_walked_not_rebuilt():
    # normalize and _cform equal the rebuilding reference, return a formula
    # with nothing to rewrite as itself and keep every unchanged subtree
    rng = random.Random(4711)
    for weak in (False, True):
        for _ in range(3000):
            f = random_formula(rng, depth=rng.randint(0, 5))
            n = normalize(f, weak)
            c = _cform(n)
            assert n == ref.normalize(f, weak) and c == ref.cform(n)
            assert structure(n) == structure(ref.normalize(f, weak))
            assert structure(c) == structure(ref.cform(n))
            assert normalize(n, weak) is n and _cform(c) is c
            assert normalize(c, weak) is c
    p = parse("K_a(p & [](q -> r)) | O_b ~s")
    for f in (p, Not(p)):
        assert normalize(f) is f and normalize(f, True) is f
    for f, g in ((And(p, Not(Not(Atom("t")))), And(p, Atom("t"))),
                 (Diamond(p), Not(Box(Not(p)))),
                 (Not(Not(Not(p))), Not(p))):
        assert normalize(f) == g and structure(normalize(f)) == structure(g)
        assert p in [x for x in subformulas(normalize(f)) if x is p]
    k = parse("K_a(p & []q) | O_b ~s")  # implication-free
    assert _cform(k) is k and _cform(Implies(k, k)).f.left is k


def test_leaves_are_their_own_forms():
    # atoms and rule atoms come back from normalize, _cform and
    # printed_nesting without a walk; vars holds their fields only, and a
    # leaf only ever normalized itself gets no cache slot
    for leaf in (Atom("p"), Atom("f", ("x", "y")), RuleAtom("r1")):
        assert normalize(leaf) is leaf and normalize(leaf, True) is leaf
        assert _cform(leaf) is leaf and printed_nesting(leaf) == 0
    p = Atom("p")
    assert normalize(Not(Not(p))) is p and _cform(Not(Not(p))) is p
    assert normalize(Diamond(p), True) == Not(Box(Not(p)))
    assert vars(p) == {"name": "p", "args": ()}
    q = Atom("never_cached")  # a leaf no other test builds
    assert normalize(q) is normalize(q, True) is _cform(q) is q
    assert not any(hasattr(q, slot) for slot in formula.Formula.__slots__[1:])


def test_names_in_one_walk():
    f = parse("K_a(@r1 & O_{b,c} @fcp#2) | Power_{d,a} q")
    assert names_in(f) == ({"a", "b", "c", "d"}, {"r1", "fcp#2"})
    assert names_in(parse("p")) == (set(), set())


# --------------------------------------------------------------- contrary

def test_contrary_negation():
    assert contrary(parse("p"), parse("~p"))
    assert contrary(parse("~p"), parse("p"))
    assert contrary(parse("~~p"), parse("~p"))
    assert not contrary(parse("p"), parse("q"))
    assert not contrary(parse("p"), parse("p"))


def test_contrary_deontic_clash():
    assert contrary(parse("O_a p"), parse("O_a ~p"))
    assert contrary(parse("O_{a,b} p"), parse("O_{a,b} ~p"))
    assert contrary(parse("O p"), parse("O ~p"))
    assert not contrary(parse("O_a p"), parse("O_b ~p"))
    assert not contrary(parse("O_a p"), parse("O_{a,b} ~p"))
    assert not contrary(parse("O_a p"), parse("O_a p"))


def test_contrary_dual_collision():
    f = parse("<>(K_c(customer) & misuse)")
    g = parse("[](K_c(customer) -> ~misuse)")
    assert contrary(f, g)
    assert contrary(g, f)
    assert not contrary(f, parse("[](K_c(customer) -> ~handle)"))
    # plain propositional dual
    assert contrary(parse("[](p -> q)"), parse("<>(p & ~q)"))


def test_contrary_declared_pairs():
    t = Theory(agents=("a",), premises=(), rules=(),
               contraries=((parse("x"), RuleAtom("r1")),))
    assert contrary(parse("x"), RuleAtom("r1"), t)
    assert contrary(RuleAtom("r1"), parse("x"), t)
    assert not contrary(parse("x"), RuleAtom("r1"))
    assert not contrary(parse("x"), RuleAtom("r2"), t)


def test_contrary_weak_mode_duality():
    weak = Theory(agents=("a",), premises=(), rules=(), contraries=(),
                  weak_mode=True)
    strong = Theory(agents=("a",), premises=(), rules=(), contraries=())
    assert contrary(parse("P_a p"), parse("O_a ~p"), weak)
    assert contrary(parse("O_a ~p"), parse("P_a p"), weak)
    assert not contrary(parse("P_a p"), parse("O_a ~p"), strong)


def test_contrary_symmetric_on_random_pairs():
    rng = random.Random(31)
    for _ in range(200):
        f = random_formula(rng, depth=3)
        g = Not(f) if rng.random() < 0.4 else random_formula(rng, depth=3)
        assert contrary(f, g) == contrary(g, f)


def test_conflict_class_covers_contrary():
    # contrary(f, g) implies a shared class or a declared pair
    rng = random.Random(41)
    shared = declared_only = 0
    for _ in range(1500):
        f, g = conflict_pair(rng, depth=rng.randint(0, 3))
        for weak in (False, True):
            pairs = (((normalize(f, weak), normalize(g, weak)),)
                     if rng.random() < 0.1 else ())
            t = Theory(agents=("a", "b"), premises=(), rules=(),
                       contraries=pairs, weak_mode=weak)
            if not contrary(f, g, t):
                continue
            if conflict_class(f, weak) == conflict_class(g, weak):
                shared += 1
            else:
                assert pairs, (f, g, weak)
                declared_only += 1
    assert shared > 1000 and declared_only > 50


def test_contrary_matches_reference():
    # 20,000 seeded pairs, half of them biased towards conflict, each in a
    # random mode, with no theory or with a theory declaring no pairs, an
    # unrelated pair, or that one and the pair itself in either order; the
    # reference compares structures, and the normal forms are compared by
    # structure too, so that a fault in interning cannot hide behind ==
    rng = random.Random(4242)
    hits = declared = 0
    for k in range(20000):
        depth = rng.randint(0, 3)
        f, g = (conflict_pair(rng, depth) if k % 2 else
                (random_formula(rng, depth), random_formula(rng, depth)))
        weak = rng.random() < 0.5
        for x in (f, g):
            assert structure(normalize(x, weak)) == \
                structure(ref.normalize(x, weak))
        roll = rng.random()
        if roll < 0.1:
            assert contrary(f, g) == ref.contrary(f, g), (f, g)
            continue
        pairs = []
        if roll > 0.4:
            pairs.append((normalize(random_formula(rng, 1), weak),
                          normalize(random_formula(rng, 1), weak)))
        if roll > 0.7:
            pair = (normalize(f, weak), normalize(g, weak))
            pairs.append(pair if rng.random() < 0.5 else pair[::-1])
        t = Theory(agents=("a", "b"), premises=(), rules=(),
                   contraries=tuple(pairs), weak_mode=weak)
        got = contrary(f, g, t)
        assert got == ref.contrary(f, g, t), (f, g, weak, pairs)
        hits += got
        declared += roll > 0.7
    assert hits > 8000 and declared > 5000


def test_conflict_class_examples():
    assert conflict_class(parse("~p")) == conflict_class(parse("p"))
    assert conflict_class(parse("O_a ~p")) == parse("O_a p")
    assert conflict_class(parse("<>(p & ~q)")) == \
        conflict_class(parse("[](p -> q)"))
    assert conflict_class(parse("P_a p"), weak=True) == parse("O_a p")
    assert conflict_class(parse("P_a p")) == parse("P_a p")


# ---------------------------------------------------------------- helpers

def test_subformulas_preorder():
    f = parse("p & ~q")
    assert list(subformulas(f)) == [f, Atom("p"), Not(Atom("q")), Atom("q")]
