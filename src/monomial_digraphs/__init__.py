"""Monomial digraphs D(q; m, n) over finite fields: construction,
isomorphism invariants, an isomorphism decision engine, and
conjecture-verification sweeps."""

from .field import Field, make_field, field_for_order, gcd_bar, units_mod
from .digraph import (MonomialParams, Digraph, MonomialDigraph,
                      BipartiteCover, build_monomial, reverse,
                      bipartite_cover, strong_components, diameter,
                      count_cycles_by_length, export, BudgetExceededError)
from .invariants import (InvariantProfile, FilterResult, gcd_profile,
                         count_loops, two_cycle_count, two_cycle_formula,
                         motif_census, trinomial_root_count,
                         necessary_filter, profile, field_profile)
from .iso import (IsoCertificate, ParameterClass, explicit_iso, power_map,
                  psi_automorphism, compose, identity_map, verify_mapping,
                  conjugate_classes, iso_search, stable_coloring,
                  extract_g, SecondCoordinateStructure,
                  FirstCoordinateDependenceError, UndecidedError)
from .sweep import SweepReport, ProfileCache, prime_powers, sweep_one

__version__ = "0.1.0"
