"""JSON codecs for goals, programs and configurations.

The batch service moves synthesis problems and results across process and
machine boundaries: jobs are shipped to ``multiprocessing`` workers, results
land in the persistent cache, and goal specs live in ``specs/*.json`` files.
Component implementations are Python closures and cannot be pickled, so the
wire format never carries code — components travel *by name* (resolved against
:data:`repro.core.components.STANDARD_COMPONENTS` on the receiving side) and
everything else (refinement terms, Re2 types, synthesized programs, search
configurations) is encoded as plain JSON-able dictionaries.

Every encoder/decoder pair here round-trips exactly: decoding an encoded value
rebuilds a structurally equal object (terms are re-interned on the receiving
side, so pointer-equality caches stay sound).  The encoding is also *stable* —
field names are fixed and defaults are omitted deterministically — which is
what makes the canonical fingerprints of :mod:`repro.service.fingerprint`
meaningful as cache keys.
"""

from __future__ import annotations

import difflib
from dataclasses import fields as dataclass_fields
from typing import Any, Callable, Dict, List, Optional

from repro.core.components import STANDARD_COMPONENTS, Component
from repro.core.config import SynthesisConfig
from repro.core.goals import AsymptoticGoal, ExampleGoal, SynthesisGoal
from repro.lang import syntax as s
from repro.logic import terms as t
from repro.logic.sorts import BOOL, DATA, INT, SET, Sort, uninterpreted
from repro.typing.checker import CheckerConfig
from repro.typing.types import (
    ArrowType,
    BaseType,
    BoolBase,
    IntBase,
    ListBase,
    RType,
    TreeBase,
    Type,
    TypeSchema,
    TypeVarBase,
)


class CodecError(ValueError):
    """Raised when a JSON payload cannot be decoded."""


# ---------------------------------------------------------------------------
# Sorts
# ---------------------------------------------------------------------------

_SORTS = {"bool": BOOL, "int": INT, "set": SET, "data": DATA}


def sort_to_json(sort: Sort) -> str:
    if sort.kind == "uninterpreted":
        return f"u:{sort.name}"
    return sort.kind


def sort_from_json(data: str) -> Sort:
    if data.startswith("u:"):
        return uninterpreted(data[2:])
    try:
        return _SORTS[data]
    except KeyError:
        raise CodecError(f"unknown sort {data!r}") from None


# ---------------------------------------------------------------------------
# Refinement terms
# ---------------------------------------------------------------------------

#: Binary connectives/operations that encode as ``{"t": tag, "a": .., "b": ..}``.
_BINARY_TERMS: Dict[type, str] = {
    t.Add: "add",
    t.Sub: "sub",
    t.Mul: "mul",
    t.Le: "le",
    t.Lt: "lt",
    t.Ge: "ge",
    t.Gt: "gt",
    t.Eq: "eq",
    t.Implies: "implies",
    t.Iff: "iff",
    t.SetUnion: "set_union",
    t.SetIntersect: "set_intersect",
    t.SetDiff: "set_diff",
    t.SetMember: "set_member",
    t.SetSubset: "set_subset",
}
_BINARY_DECODERS: Dict[str, Callable[[t.Term, t.Term], t.Term]] = {
    "add": t.Add,
    "sub": t.Sub,
    "mul": t.Mul,
    "le": t.Le,
    "lt": t.Lt,
    "ge": t.Ge,
    "gt": t.Gt,
    "eq": t.Eq,
    "implies": t.Implies,
    "iff": t.Iff,
    "set_union": t.SetUnion,
    "set_intersect": t.SetIntersect,
    "set_diff": t.SetDiff,
    "set_member": t.SetMember,
    "set_subset": t.SetSubset,
}


def term_to_json(term: t.Term) -> dict:
    tag = _BINARY_TERMS.get(type(term))
    if tag is not None:
        left, right = term.children()
        return {"t": tag, "a": term_to_json(left), "b": term_to_json(right)}
    if isinstance(term, t.Var):
        return {"t": "var", "name": term.name, "sort": sort_to_json(term.sort)}
    if isinstance(term, t.IntConst):
        return {"t": "int", "value": term.value}
    if isinstance(term, t.BoolConst):
        return {"t": "bool", "value": term.value}
    if isinstance(term, t.Not):
        return {"t": "not", "arg": term_to_json(term.arg)}
    if isinstance(term, t.And):
        return {"t": "and", "args": [term_to_json(a) for a in term.args]}
    if isinstance(term, t.Or):
        return {"t": "or", "args": [term_to_json(a) for a in term.args]}
    if isinstance(term, t.Ite):
        return {
            "t": "ite",
            "cond": term_to_json(term.cond),
            "then": term_to_json(term.then_branch),
            "else": term_to_json(term.else_branch),
            "sort": sort_to_json(term.sort),
        }
    if isinstance(term, t.App):
        return {
            "t": "app",
            "func": term.func,
            "args": [term_to_json(a) for a in term.args],
            "sort": sort_to_json(term.sort),
        }
    if isinstance(term, t.EmptySet):
        return {"t": "empty_set"}
    if isinstance(term, t.SetSingleton):
        return {"t": "set_singleton", "elem": term_to_json(term.elem)}
    if isinstance(term, t.SetAll):
        return {
            "t": "set_all",
            "var": term.var,
            "set": term_to_json(term.set_term),
            "body": term_to_json(term.body),
        }
    raise CodecError(f"cannot encode term of type {type(term).__name__}")


def term_from_json(data: dict) -> t.Term:
    tag = data.get("t")
    decoder = _BINARY_DECODERS.get(tag)
    if decoder is not None:
        return decoder(term_from_json(data["a"]), term_from_json(data["b"]))
    if tag == "var":
        return t.Var(data["name"], sort_from_json(data["sort"]))
    if tag == "int":
        return t.IntConst(int(data["value"]))
    if tag == "bool":
        return t.BoolConst(bool(data["value"]))
    if tag == "not":
        return t.Not(term_from_json(data["arg"]))
    if tag == "and":
        return t.And(tuple(term_from_json(a) for a in data["args"]))
    if tag == "or":
        return t.Or(tuple(term_from_json(a) for a in data["args"]))
    if tag == "ite":
        return t.Ite(
            term_from_json(data["cond"]),
            term_from_json(data["then"]),
            term_from_json(data["else"]),
            sort_from_json(data["sort"]),
        )
    if tag == "app":
        return t.App(
            data["func"],
            tuple(term_from_json(a) for a in data["args"]),
            sort_from_json(data["sort"]),
        )
    if tag == "empty_set":
        return t.EmptySet()
    if tag == "set_singleton":
        return t.SetSingleton(term_from_json(data["elem"]))
    if tag == "set_all":
        return t.SetAll(data["var"], term_from_json(data["set"]), term_from_json(data["body"]))
    raise CodecError(f"unknown term tag {tag!r}")


# ---------------------------------------------------------------------------
# Re2 types
# ---------------------------------------------------------------------------


def _base_to_json(base: BaseType) -> dict:
    if isinstance(base, BoolBase):
        return {"t": "bool"}
    if isinstance(base, IntBase):
        return {"t": "int"}
    if isinstance(base, TypeVarBase):
        return {"t": "tvar", "name": base.name}
    if isinstance(base, ListBase):
        encoded = {"t": "list", "elem": type_to_json(base.elem)}
        if base.sorted:
            encoded["sorted"] = True
        return encoded
    if isinstance(base, TreeBase):
        return {"t": "tree", "elem": type_to_json(base.elem)}
    raise CodecError(f"cannot encode base type {type(base).__name__}")


def _base_from_json(data: dict) -> BaseType:
    tag = data.get("t")
    if tag == "bool":
        return BoolBase()
    if tag == "int":
        return IntBase()
    if tag == "tvar":
        return TypeVarBase(data["name"])
    if tag == "list":
        elem = type_from_json(data["elem"])
        assert isinstance(elem, RType)
        return ListBase(elem, bool(data.get("sorted", False)))
    if tag == "tree":
        elem = type_from_json(data["elem"])
        assert isinstance(elem, RType)
        return TreeBase(elem)
    raise CodecError(f"unknown base-type tag {tag!r}")


def type_to_json(rtype: Type) -> dict:
    """Encode an :class:`RType` or :class:`ArrowType` (defaults omitted)."""
    if isinstance(rtype, RType):
        encoded: dict = {"t": "rtype", "base": _base_to_json(rtype.base)}
        if rtype.refinement is not t.TRUE and rtype.refinement != t.TRUE:
            encoded["refinement"] = term_to_json(rtype.refinement)
        if not (isinstance(rtype.potential, t.IntConst) and rtype.potential.value == 0):
            encoded["potential"] = term_to_json(rtype.potential)
        return encoded
    if isinstance(rtype, ArrowType):
        encoded = {
            "t": "arrow",
            "param": rtype.param,
            "param_type": type_to_json(rtype.param_type),
            "result": type_to_json(rtype.result),
        }
        if rtype.cost:
            encoded["cost"] = rtype.cost
        return encoded
    raise CodecError(f"cannot encode type {type(rtype).__name__}")


def type_from_json(data: dict) -> Type:
    tag = data.get("t")
    if tag == "rtype":
        refinement = term_from_json(data["refinement"]) if "refinement" in data else t.TRUE
        potential = term_from_json(data["potential"]) if "potential" in data else t.ZERO
        return RType(_base_from_json(data["base"]), refinement, potential)
    if tag == "arrow":
        return ArrowType(
            data["param"],
            type_from_json(data["param_type"]),
            type_from_json(data["result"]),
            int(data.get("cost", 0)),
        )
    raise CodecError(f"unknown type tag {tag!r}")


def schema_to_json(schema: TypeSchema) -> dict:
    return {"tvars": list(schema.tvars), "body": type_to_json(schema.body)}


def schema_from_json(data: dict) -> TypeSchema:
    return TypeSchema(tuple(data["tvars"]), type_from_json(data["body"]))


# ---------------------------------------------------------------------------
# Goals (components travel by name)
# ---------------------------------------------------------------------------


def goal_to_json(goal: SynthesisGoal) -> dict:
    """Encode a goal; components must come from the standard library.

    Example goals (:class:`repro.core.goals.ExampleGoal`) additionally carry
    their ``examples`` (in the goal's canonical order) and, when present, the
    ``grammar`` restriction.  Both are part of the goal's identity, so they
    flow into job fingerprints — two goals differing only in examples can
    never collide in the result cache.  Plain goals encode exactly as before,
    which is what keeps their fingerprints (and every cached result) stable.
    """
    for component in goal.components:
        registered = STANDARD_COMPONENTS.get(component.name)
        if registered is None or registered is not component:
            raise CodecError(
                f"component {component.name!r} is not in the standard library; "
                "declarative specs can only reference named library components"
            )
    encoded = {
        "name": goal.name,
        "schema": schema_to_json(goal.schema),
        "components": [c.name for c in goal.components],
    }
    if isinstance(goal, AsymptoticGoal):
        encoded["bound"] = {
            "cls": goal.bound,
            "size_of": list(goal.size_of),
            "ladder": list(goal.ladder),
        }
    elif isinstance(goal, ExampleGoal):
        from repro.pbe.examples import example_to_json
        from repro.pbe.grammar import grammar_to_json

        encoded["examples"] = [example_to_json(e) for e in goal.examples]
        if goal.grammar is not None:
            encoded["grammar"] = grammar_to_json(goal.grammar)
    return encoded


def _unknown_component_error(name: str) -> CodecError:
    """A pointed error for a component name that is not in the library."""
    close = difflib.get_close_matches(name, sorted(STANDARD_COMPONENTS), n=3, cutoff=0.5)
    if close:
        hint = f"; closest matches: {', '.join(repr(c) for c in close)}"
    else:
        hint = f"; valid components: {', '.join(sorted(STANDARD_COMPONENTS))}"
    return CodecError(f"unknown component {name!r}{hint}")


def goal_from_json(data: dict) -> SynthesisGoal:
    components: List[Component] = []
    for name in data["components"]:
        component = STANDARD_COMPONENTS.get(name)
        if component is None:
            raise _unknown_component_error(name)
        components.append(component)
    name = data["name"]
    schema = schema_from_json(data["schema"])
    if "bound" in data:
        bound = data["bound"]
        if not isinstance(bound, dict) or "cls" not in bound:
            raise CodecError(f"goal {name!r}: 'bound' must be an object with a 'cls' field")
        unknown = set(bound) - {"cls", "size_of", "ladder"}
        if unknown:
            raise CodecError(f"goal {name!r}: unknown bound fields: {sorted(unknown)}")
        try:
            return AsymptoticGoal.create(
                name,
                schema,
                components,
                bound=bound["cls"],
                size_of=tuple(bound.get("size_of") or ()),
                ladder=tuple(bound.get("ladder") or ()),
            )
        except ValueError as err:
            raise CodecError(str(err)) from err
    if "examples" in data or "grammar" in data:
        from repro.pbe.examples import ExampleError, example_from_json
        from repro.pbe.grammar import GrammarError, grammar_from_json

        try:
            examples = tuple(example_from_json(e) for e in data.get("examples", []))
            grammar = grammar_from_json(data["grammar"]) if "grammar" in data else None
        except (ExampleError, GrammarError) as err:
            raise CodecError(str(err)) from err
        return ExampleGoal.create_with_examples(name, schema, components, examples, grammar)
    return SynthesisGoal.create(name, schema, components)


# ---------------------------------------------------------------------------
# Synthesized programs
# ---------------------------------------------------------------------------


def program_to_json(expr: s.Expr) -> dict:
    if isinstance(expr, s.Var):
        return {"t": "var", "name": expr.name}
    if isinstance(expr, s.BoolLit):
        return {"t": "bool", "value": expr.value}
    if isinstance(expr, s.IntLit):
        return {"t": "int", "value": expr.value}
    if isinstance(expr, s.Nil):
        return {"t": "nil"}
    if isinstance(expr, s.Cons):
        return {"t": "cons", "head": program_to_json(expr.head), "tail": program_to_json(expr.tail)}
    if isinstance(expr, s.Leaf):
        return {"t": "leaf"}
    if isinstance(expr, s.Node):
        return {
            "t": "node",
            "left": program_to_json(expr.left),
            "value": program_to_json(expr.value),
            "right": program_to_json(expr.right),
        }
    if isinstance(expr, s.App):
        return {"t": "app", "func": expr.func, "args": [program_to_json(a) for a in expr.args]}
    if isinstance(expr, s.If):
        return {
            "t": "if",
            "cond": program_to_json(expr.cond),
            "then": program_to_json(expr.then_branch),
            "else": program_to_json(expr.else_branch),
        }
    if isinstance(expr, s.MatchList):
        return {
            "t": "match_list",
            "scrutinee": program_to_json(expr.scrutinee),
            "nil": program_to_json(expr.nil_branch),
            "head": expr.head_name,
            "tail": expr.tail_name,
            "cons": program_to_json(expr.cons_branch),
        }
    if isinstance(expr, s.MatchTree):
        return {
            "t": "match_tree",
            "scrutinee": program_to_json(expr.scrutinee),
            "leaf": program_to_json(expr.leaf_branch),
            "left": expr.left_name,
            "value": expr.value_name,
            "right": expr.right_name,
            "node": program_to_json(expr.node_branch),
        }
    if isinstance(expr, s.Let):
        return {
            "t": "let",
            "name": expr.name,
            "rhs": program_to_json(expr.rhs),
            "body": program_to_json(expr.body),
        }
    if isinstance(expr, s.Lambda):
        return {"t": "lambda", "params": list(expr.params), "body": program_to_json(expr.body)}
    if isinstance(expr, s.Fix):
        return {
            "t": "fix",
            "name": expr.name,
            "params": list(expr.params),
            "body": program_to_json(expr.body),
        }
    if isinstance(expr, s.Tick):
        return {"t": "tick", "cost": expr.cost, "expr": program_to_json(expr.expr)}
    if isinstance(expr, s.Impossible):
        return {"t": "impossible"}
    raise CodecError(f"cannot encode expression of type {type(expr).__name__}")


def program_from_json(data: dict) -> s.Expr:
    tag = data.get("t")
    if tag == "var":
        return s.Var(data["name"])
    if tag == "bool":
        return s.BoolLit(bool(data["value"]))
    if tag == "int":
        return s.IntLit(int(data["value"]))
    if tag == "nil":
        return s.Nil()
    if tag == "cons":
        return s.Cons(program_from_json(data["head"]), program_from_json(data["tail"]))
    if tag == "leaf":
        return s.Leaf()
    if tag == "node":
        return s.Node(
            program_from_json(data["left"]),
            program_from_json(data["value"]),
            program_from_json(data["right"]),
        )
    if tag == "app":
        return s.App(data["func"], tuple(program_from_json(a) for a in data["args"]))
    if tag == "if":
        return s.If(
            program_from_json(data["cond"]),
            program_from_json(data["then"]),
            program_from_json(data["else"]),
        )
    if tag == "match_list":
        return s.MatchList(
            program_from_json(data["scrutinee"]),
            program_from_json(data["nil"]),
            data["head"],
            data["tail"],
            program_from_json(data["cons"]),
        )
    if tag == "match_tree":
        return s.MatchTree(
            program_from_json(data["scrutinee"]),
            program_from_json(data["leaf"]),
            data["left"],
            data["value"],
            data["right"],
            program_from_json(data["node"]),
        )
    if tag == "let":
        return s.Let(data["name"], program_from_json(data["rhs"]), program_from_json(data["body"]))
    if tag == "lambda":
        return s.Lambda(tuple(data["params"]), program_from_json(data["body"]))
    if tag == "fix":
        return s.Fix(data["name"], tuple(data["params"]), program_from_json(data["body"]))
    if tag == "tick":
        return s.Tick(int(data["cost"]), program_from_json(data["expr"]))
    if tag == "impossible":
        return s.Impossible()
    raise CodecError(f"unknown program tag {tag!r}")


# ---------------------------------------------------------------------------
# Configurations
# ---------------------------------------------------------------------------


def config_to_json(config: SynthesisConfig) -> dict:
    """Encode a fully resolved configuration (every field, explicitly).

    ``trace`` is deliberately excluded: tracing is observability, not part of
    the synthesis problem — encoding it would change every job fingerprint
    and make traced runs miss the cache of untraced ones.
    """
    checker = {f.name: getattr(config.checker, f.name) for f in dataclass_fields(CheckerConfig)}
    encoded = {
        f.name: getattr(config, f.name)
        for f in dataclass_fields(SynthesisConfig)
        if f.name not in ("checker", "trace")
    }
    encoded["checker"] = checker
    return encoded


#: Scheduling-policy knobs that deliberately do NOT live on SynthesisConfig:
#: they change how a job is *executed* (and would poison fingerprints/cache
#: keys if encoded), not what it computes.  They belong on the scheduler
#: (``BatchScheduler(retries=, grace=)``) or the job (``Job.retries``).
_SERVICE_POLICY_FIELDS = ("retries", "grace", "hard_timeout")


def config_from_json(data: dict) -> SynthesisConfig:
    checker_names = {f.name for f in dataclass_fields(CheckerConfig)}
    config_names = {f.name for f in dataclass_fields(SynthesisConfig)}
    checker_data = data.get("checker", {})
    unknown = (set(checker_data) - checker_names) | (set(data) - config_names)
    if unknown:
        misplaced = sorted(unknown & set(_SERVICE_POLICY_FIELDS))
        if misplaced:
            raise CodecError(
                f"{misplaced} are scheduling policy, not synthesis configuration: "
                "set them on BatchScheduler/Job (they are excluded from job "
                "fingerprints so retuning them never invalidates cached results)"
            )
        raise CodecError(f"unknown configuration fields: {sorted(unknown)}")
    checker = CheckerConfig(**checker_data)
    rest = {k: v for k, v in data.items() if k != "checker"}
    return SynthesisConfig(checker=checker, **rest)


#: Named configuration modes accepted by declarative specs; mirrors the named
#: constructors on :class:`SynthesisConfig`.
CONFIG_MODES: Dict[str, Callable[..., SynthesisConfig]] = {
    "resyn": SynthesisConfig.resyn,
    "synquid": SynthesisConfig.synquid,
    "eac": SynthesisConfig.enumerate_and_check_config,
    "noninc": SynthesisConfig.resyn_nonincremental,
    "constant_resource": SynthesisConfig.constant_resource,
}


def config_from_mode(mode: str, overrides: Optional[Dict[str, Any]] = None) -> SynthesisConfig:
    """Build a configuration from a mode name plus search-bound overrides."""
    try:
        factory = CONFIG_MODES[mode]
    except KeyError:
        raise CodecError(f"unknown configuration mode {mode!r}") from None
    return factory(**(overrides or {}))


def config_from_wire(data: Optional[dict]) -> SynthesisConfig:
    """Decode a configuration from a server request.

    Accepts the two shapes clients actually send: a full configuration
    encoding (:func:`config_from_json`) or the compact
    ``{"mode": "resyn", "overrides": {...}}`` form used by declarative specs.
    ``None``/``{}`` means the resyn defaults.
    """
    if not data:
        return SynthesisConfig.resyn()
    if not isinstance(data, dict):
        raise CodecError("config must be a JSON object")
    if "mode" in data:
        unknown = set(data) - {"mode", "overrides"}
        if unknown:
            raise CodecError(f"unknown mode-config fields: {sorted(unknown)}")
        return config_from_mode(data["mode"], data.get("overrides"))
    return config_from_json(data)
