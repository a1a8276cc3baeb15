"""Compile input-output examples into ground CEGIS examples.

Resource constraints quantify over program variables and measure terms
(``len xs``, scalar parameters); the CEGIS loop instantiates them on the
*counterexamples* the verifier discovers.  A PBE goal already knows concrete
inputs the function must handle — its examples — so those inputs are seeded
into :class:`repro.constraints.cegis.CegisSolver` as ground examples *before*
the first verification query.  Seeding is sound (an example only adds ground
instances of constraints that must hold for all inputs) and useful: the
initial coefficient guess is immediately confronted with the inputs the user
cares about instead of whatever the verifier samples first, and the grounding
caches are warm from the start.

The mapping mirrors what the verifier's own models contain
(:meth:`CegisSolver._find_counterexample` builds ``Example(dict(model.ints))``):

* a numeric scalar parameter ``x`` with value ``v`` becomes ``{"x": v}``
  (keyed by variable *name*, as in the grounding's linear forms,
  :func:`repro.constraints.cegis.linear_form`);
* a list parameter ``xs`` becomes ``{len(xs): <length>}`` keyed by the
  interned measure term ``t.len_(Var(xs, DATA))`` — the same term shape the
  typing layer puts into constraints, so grounding hits it by term equality;
* Boolean and tree parameters stay symbolic (the CEGIS grounding keeps
  non-numeric terms symbolic too, so there is nothing to seed).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.constraints.cegis import Example
from repro.logic import terms as t
from repro.typing.context import var_term
from repro.typing.types import ArrowType, ListBase, RType, TreeBase, TypeSchema


def cegis_seed_examples(schema: TypeSchema, examples: Sequence) -> List[Example]:
    """Ground CEGIS examples for the goal ``schema`` and its ``IOExample``s."""
    body = schema.body
    assert isinstance(body, ArrowType)
    params = body.params()
    seeds: List[Example] = []
    for example in examples:
        ints: Dict[object, int] = {}
        for (name, ptype), value in zip(params, example.inputs):
            if not isinstance(ptype, RType):
                continue
            if isinstance(ptype.base, ListBase) and isinstance(value, tuple):
                ints[t.len_(var_term(name, ptype))] = len(value)
            elif isinstance(ptype.base, TreeBase):
                continue
            elif isinstance(value, int) and not isinstance(value, bool):
                if ptype.base.nu_sort().is_numeric:
                    ints[name] = value
        if ints:
            seeds.append(Example(ints))
    return seeds
