"""Structured argumentation over a deontic-epistemic action language:
parse formulas, translate normative positions, load rule theories, build
arguments, compute the defeats between them (every attack is a defeat),
enumerate stable extensions.
"""

from .formula import (And, Atom, Box, Diamond, Formula, Implies, Know, Not,
                      Oblig, Or, Perm, Power, Right, RuleAtom, Stit,
                      UnknownOperator, agents_in, conflict_class, contrary,
                      normalize, parse, print_formula, subformulas)
from .hohfeld import (IncompleteCover, NormativePosition, PositionKind,
                      correlative, generalize, opposite, position_warnings,
                      to_formula)
from .theory import (DanglingRuleAtom, DuplicateId, Premise, Rule, RuleKind,
                     SchemeRoundsExceeded, Schemes, Strength, Theory,
                     UnknownAgent, ValidationError, instantiate_schemes,
                     load_theory, parse_theory)
from .arguments import Argument, classify, construct_arguments
from .semantics import (ArgumentationFramework, Defeat, DefeatKind, TooLarge,
                        acceptance, brute_force_stable, compute_defeats,
                        grounded_extension, members, stable_extensions,
                        verify_extension)

__version__ = "0.1.0"
