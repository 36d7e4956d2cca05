"""The join executor: every conjunctive-body search of the library.

One operation sits under every construct of the paper: a homomorphism of
a conjunctive body into an instance.  s-t tgd bodies are matched over the
source (Section 2), CNRE heads and target constraints over the graph
(Sections 2 and 3), and pattern homomorphisms decide Rep(π) (Section
3.2).  All of them run here.

A :class:`Body` is a list of atoms ``(access, terms)`` plus the tuple of
its variables; any other term is a constant.  :meth:`Body.plan` compiles
it once: the atoms are ordered greedily (most bound variables first, then
the smallest storage, ties in body order), every variable and constant
gets an integer *slot*, and each atom becomes a search step that reads
its key slots and writes its new ones.  A search keeps its bindings in
one list, so nothing is keyed by
:class:`~repro.relational.query.Variable` while it runs.

An *access* hides one storage's format: :class:`LabelAccess` (a graph
label), :class:`PairAccess` (a composite NRE's relation from a query
engine) or :class:`TupleAccess` (a relation of a relational instance).
``reader(key)`` takes the sorted positions a step has bound and returns
``(fetch, probe)``.  ``fetch(*values)`` gets those positions' values and
returns the truth of the fact when every position is bound, else the
candidates for the free positions (falsy for none): a value each when
one position is free, else a tuple in position order.  ``probe`` says
whether the read is a hash-index probe, counted into
``ChaseStats.index_hits``.  A plan reads the indexes as they are when it
is compiled: compile a new one after the storage changes.

Searches: full and seeded (:meth:`Plan.rows`), projected (``project``)
and delta (:meth:`Body.delta_rows`: one atom pinned to each of its given
facts in turn, rows deduplicated).

:meth:`Plan.exists` asks only whether some match extends the bound
values (:meth:`Plan.existence` gives it as one function for many
probes).  On its first call it splits the atoms into components linked
by *unbound* variables (bound slots and constants link nothing) and
compiles each into the cheapest test that fits it: an atom with every
position bound is its step's keyed read, the truth of its fact; a lone
atom whose unbound variables each occur once is the same read, tested
by its first candidate; any other component is a search, of the plan
itself when it is the whole body, else of its own greedy plan memoised
on the bound values it uses when those are not all of them.  The tests
run in that order, so a failing group never makes the search of another
one re-enumerate its matches.

>>> from repro.graph.database import GraphDatabase
>>> g = GraphDatabase(edges=[("u", "a", "v"), ("v", "a", "w")])
>>> body = Body([(LabelAccess(g, "a"), ("x", "y")),
...              (LabelAccess(g, "a"), ("y", "z"))], ("x", "y", "z"))
>>> list(body.rows())
[('u', 'v', 'w')]
>>> list(body.plan(bound=[1]).rows(["v"], project=[2]))
[('w',)]
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

Node = Hashable
Row = list
Step = Callable[[Row], Iterator[None]]


class LabelAccess:
    """One edge label of a graph, positions ``(source, target)``."""

    __slots__ = ("graph", "label")

    def __init__(self, graph, label: str):
        self.graph = graph
        self.label = label

    def size(self) -> int:
        """The label's edge count."""
        return self.graph.label_count(self.label)

    def reader(self, key: tuple[int, ...]) -> tuple[Callable, bool]:
        """A forward-index probe, ``forward_index``, ``backward_index`` or
        a label scan."""
        graph, label = self.graph, self.label
        if key == (0, 1):
            targets = graph.forward_index(label).get
            return (lambda u, v: v in targets(u, ())), True
        if key == (0,):
            return graph.forward_index(label).get, True
        if key == (1,):
            return graph.backward_index(label).get, True
        return (lambda: graph.iter_label_pairs(label)), False


class PairAccess:
    """A binary relation given as a set of pairs."""

    __slots__ = ("pairs", "_maps")

    def __init__(self, pairs: frozenset[tuple[Node, Node]]):
        self.pairs = pairs
        self._maps: dict[int, dict[Node, set[Node]]] = {}

    def size(self) -> int:
        """The number of pairs."""
        return len(self.pairs)

    def reader(self, key: tuple[int, ...]) -> tuple[Callable, bool]:
        """Membership, the successor map or its inverse (each built on
        first use), or the pairs themselves."""
        pairs = self.pairs
        if key == (0, 1):
            return (lambda u, v: (u, v) in pairs), False
        if not key:
            return (lambda: pairs), False
        (side,) = key
        groups = self._maps.get(side)
        if groups is None:
            groups = self._maps[side] = {}
            for pair in pairs:
                groups.setdefault(pair[side], set()).add(pair[1 - side])
        return groups.get, False


class TupleAccess:
    """One relation of a relational instance, one position per column."""

    __slots__ = ("instance", "relation", "arity")

    def __init__(self, instance, relation: str, arity: int):
        self.instance = instance
        self.relation = relation
        self.arity = arity

    def size(self) -> int:
        """The relation's tuple count."""
        return self.instance.count(self.relation)

    def reader(self, key: tuple[int, ...]) -> tuple[Callable, bool]:
        """``tuples_with_first`` when the first column is bound, else a
        scan; other bound columns filter, free columns are projected."""
        instance, relation = self.instance, self.relation
        indexed = key[:1] == (0,)
        free = [p for p in range(self.arity) if p not in key]
        if not free:
            return (lambda *values: instance.contains(relation, values)), indexed
        tests = [(p, i) for i, p in enumerate(key) if not (indexed and i == 0)]
        pick = None if len(free) == self.arity > 1 else itemgetter(*free)

        def fetch(*values):
            if indexed:
                rows = instance.tuples_with_first(relation, values[0])
            else:
                rows = instance.iter_tuples(relation)
            if tests:
                rows = [t for t in rows if all(t[p] == values[i] for p, i in tests)]
            return rows if pick is None else map(pick, rows)

        return fetch, indexed


class Body:
    """A conjunctive body over some storage, its variables numbered once.

    ``atoms`` are ``(access, terms)`` pairs, one term per access
    position; a term is a variable when it occurs in ``variables`` and a
    constant otherwise.  Rows list values in ``variables`` order.
    """

    def __init__(self, atoms: Iterable[tuple[object, Sequence]], variables: Sequence):
        self.variables = tuple(variables)
        self.index = index = {var: i for i, var in enumerate(self.variables)}
        # A term is (True, variable index) or (False, constant).
        self.atoms = [
            (access, tuple((t in index, index.get(t, t)) for t in terms))
            for access, terms in atoms
        ]

    def rows(self, seed: Mapping | None = None, project=None, stats=None):
        """Every match extending ``seed`` (variable → value), as rows."""
        seed = seed or {}
        bound = [i for i, var in enumerate(self.variables) if var in seed]
        values = [seed[self.variables[i]] for i in bound]
        return self.plan(bound).rows(values, project, stats)

    def matches(self, seed: Mapping | None = None, stats=None) -> Iterator[dict]:
        """:meth:`rows` as fresh dicts, which also hold ``seed``'s bindings."""
        for row in self.rows(seed, stats=stats):
            match = dict(seed) if seed else {}
            match.update(zip(self.variables, row))
            yield match

    def plan(self, bound: Sequence[int] = (), pinned: int | None = None) -> "Plan":
        """Compile a search with the variables ``bound`` (indexes) given.

        ``pinned`` instead names an atom that is mapped onto one fact per
        search (:meth:`Plan.pin`) rather than searched; its variables are
        the bound ones.
        """
        slots: dict[int, int] = {}
        for var in bound:
            slots.setdefault(var, len(slots))
        pin: tuple[list, list, list] = ([], [], [])  # binding, repeating, constant
        firsts: dict[int, int] = {}
        if pinned is not None:
            for pos, (is_var, term) in enumerate(self.atoms[pinned][1]):
                if not is_var:
                    pin[2].append((pos, term))
                elif term in firsts:
                    pin[1].append((pos, firsts[term]))
                else:
                    firsts[term], slots[term] = pos, len(slots)
                    pin[0].append(pos)
        start = width = len(slots)
        constants: list = []  # from slot ``start`` on, in plan order
        remaining = [i for i in range(len(self.atoms)) if i != pinned]
        width += sum(not v for i in remaining for v, _ in self.atoms[i][1])
        sizes = [access.size() for access, _ in self.atoms]
        reads: list[Callable[[Row], object] | None] = [None] * len(self.atoms)
        steps: list[Step] = []
        probes: list[int] = []
        while remaining:
            best = min(
                remaining,
                key=lambda i: (
                    len({t for v, t in self.atoms[i][1] if v and t not in slots}),
                    sizes[i],
                ),
            )
            remaining.remove(best)
            access, terms = self.atoms[best]
            key: list[int] = []
            key_slots: list[int] = []
            lo, free = width, 0
            take: list[int] = []  # candidate parts that bind a new slot
            repeats: list[tuple[int, int]] = []  # candidate parts that must agree
            firsts = {}
            for pos, (is_var, term) in enumerate(terms):
                if not is_var:
                    key.append(pos)
                    key_slots.append(start + len(constants))
                    constants.append(term)
                    continue
                if term in slots and term not in firsts:
                    key.append(pos)
                    key_slots.append(slots[term])
                    continue
                if term in firsts:
                    repeats.append((firsts[term], free))
                else:
                    firsts[term], slots[term] = free, width
                    width += 1
                    take.append(free)
                free += 1
            fetch, probe = access.reader(tuple(key))
            reads[best] = _keyed(fetch, key_slots)
            steps.append(_step(reads[best], lo, width, repeats, take))
            probes.append(int(probe))
        tail = [*constants, *[None] * (width - start - len(constants))]
        bound = tuple(slots)[:start]
        return Plan(self, bound, slots, reads, steps, probes, tail, pin)

    def delta_rows(
        self, facts: Callable[[int], Sequence[tuple] | None], stats=None
    ) -> Iterator[tuple]:
        """Rows of the matches that map some atom onto one of its given facts.

        ``facts(i)`` returns the facts (value tuples in access-position
        order) atom ``i`` is pinned to in turn; the rest of the body is
        searched around each.  A row reached from several facts is
        yielded once.
        """
        seen: set[tuple] = set()
        for pinned in range(len(self.atoms)):
            pinned_facts = facts(pinned)
            if not pinned_facts:
                continue
            plan = self.plan(pinned=pinned)
            for fact in pinned_facts:
                row = plan.pin(fact)
                if row is not None:
                    for values in plan.extend(row, stats=stats):
                        if values not in seen:
                            seen.add(values)
                            yield values


class Plan:
    """A body compiled into search steps over integer slots."""

    __slots__ = (
        "body", "bound", "slots", "reads", "steps", "probes", "tail", "pin_shape",
        "check",
    )

    def __init__(self, body, bound, slots, reads, steps, probes, tail, pin):
        self.body = body
        self.bound = bound  # the variables of the first slots, in order
        self.slots = slots  # variable index -> slot
        self.reads = reads  # per atom, its step's keyed read of a row
        self.steps = steps
        self.probes = probes
        self.tail = tail  # the row after the bound slots: constants, then unset
        self.pin_shape = pin
        self.check: Callable[[Sequence], bool] | None = None  # of existence

    def start(self, values: Sequence = ()) -> Row:
        """A fresh row with the plan's bound variables set to ``values``."""
        return [*values, *self.tail]

    def pin(self, fact: Sequence) -> Row | None:
        """The start row for the pinned atom mapped onto ``fact``, or
        ``None`` when the fact does not fit the atom's constants and
        repeated variables."""
        firsts, repeats, constants = self.pin_shape
        if all(fact[p] == c for p, c in constants) and all(
            fact[p] == fact[q] for p, q in repeats
        ):
            return [*[fact[p] for p in firsts], *self.tail]
        return None

    def getter(self, variables: Iterable[int]) -> Callable[[Row], tuple]:
        """A function from a search row to the values of ``variables``."""
        slots = [self.slots[var] for var in variables]
        if len(slots) > 1:
            return itemgetter(*slots)
        return lambda row: tuple([row[slot] for slot in slots])

    def search(self, row: Row, stats=None) -> Iterator[Row]:
        """Yield ``row`` at every match that extends it (the same list).

        ``stats`` gets one ``index_hits`` per index probe.
        """
        steps, probes = self.steps, self.probes
        if not steps:
            yield row
            return
        last = len(steps) - 1
        hits = probes[0]
        stack = [steps[0](row)]
        try:
            while stack:
                level = len(stack) - 1
                if level == last:
                    for _ in stack.pop():
                        yield row
                else:
                    for _ in stack[-1]:
                        hits += probes[level + 1]
                        stack.append(steps[level + 1](row))
                        break
                    else:
                        stack.pop()
        finally:
            if stats is not None:
                stats.index_hits += hits

    def rows(self, values: Sequence = (), project=None, stats=None) -> Iterator[tuple]:
        """Every match from ``values`` as a tuple of ``project``'s variables
        (default: all of the body's, in order)."""
        return self.extend(self.start(values), project, stats)

    def extend(self, row: Row, project=None, stats=None) -> Iterator[tuple]:
        """:meth:`rows` from a start row (:meth:`start` or :meth:`pin`)."""
        get = self.getter(
            range(len(self.body.variables)) if project is None else project
        )
        for match in self.search(row, stats):
            yield get(match)

    def exists(self, values: Sequence = ()) -> bool:
        """Whether some match extends ``values``: :meth:`existence` applied."""
        return self.existence()(values)

    def existence(self) -> Callable[[Sequence], bool]:
        """:meth:`exists` as a function of the values, for many probes.

        It tests one component at a time (module docstring); the tests
        are compiled on the first call, so a plan only searched for rows
        never builds them.
        """
        check = self.check
        if check is None:
            tests = _component_tests(self)
            if len(tests) == 1:
                check = tests[0]
            else:

                def check(values: Sequence) -> bool:
                    for test in tests:
                        if not test(values):
                            return False
                    return True

            self.check = check
        return check


def _components(body: Body, bound: Sequence[int]) -> list[tuple[str, list[int]]]:
    """``body``'s atoms in components linked by variables not in
    ``bound``, each with the kind of its test: ``"membership"`` (every
    position bound), ``"non-empty"`` (a lone atom whose unbound variables
    occur once) or ``"search"``, in that order of kinds."""
    given = set(bound)
    groups: list[tuple[set[int], list[int]]] = []  # unbound variables, atoms
    for i, (_, terms) in enumerate(body.atoms):
        group = ({t for v, t in terms if v and t not in given}, [i])
        for other in [g for g in groups if g[0] & group[0]]:
            groups.remove(other)
            group[0].update(other[0])
            group[1].extend(other[1])
        groups.append(group)
    kinds = ("membership", "non-empty", "search")
    components = []
    for unbound, atoms in groups:
        free = [t for v, t in body.atoms[atoms[0]][1] if v and t not in given]
        if len(atoms) > 1 or len(free) > len(unbound):  # linked or repeated
            components.append(("search", sorted(atoms)))
        else:
            components.append((kinds[bool(free)], atoms))
    return sorted(components, key=lambda c: kinds.index(c[0]))


def _component_tests(plan: Plan) -> list[Callable]:
    """The tests of :meth:`Plan.existence`, one per :func:`_components`
    entry, each over the values of the plan's bound variables.

    A membership or non-empty test is its atom's read in ``plan``: the
    atom's unbound variables occur nowhere else, so whatever the step
    order, the read's key is the atom's bound positions and constants.
    A search runs ``plan`` when its component is the whole body, else a
    plan of its own, memoised on the bound values it uses when those are
    not all of them.
    """
    body, bound = plan.body, plan.bound
    variables = body.variables
    tests: list[Callable] = []
    for kind, atoms in _components(body, bound):
        if kind != "search":
            read = plan.reads[atoms[0]]
            if not all(v for v, _ in body.atoms[atoms[0]][1]):
                read = _started(read, plan.start)  # constants sit after the values
            tests.append(read if kind == "membership" else _nonempty(read))
            continue
        used = {t for i in atoms for v, t in body.atoms[i][1] if v}
        own = [i for i, var in enumerate(bound) if var in used]
        every = len(own) == len(bound)
        if every and len(atoms) == len(body.atoms):
            tests.append(_found(plan, None))
            continue
        part = Body(
            [
                (access, [variables[t] if v else t for v, t in terms])
                for access, terms in map(body.atoms.__getitem__, atoms)
            ],
            variables,
        )
        tests.append(_found(part.plan([bound[i] for i in own]), None if every else own))
    return tests


def _started(read: Callable[[Row], object], start: Callable) -> Callable:
    """``read`` of the row that ``start`` makes from the values."""
    return lambda values: read(start(values))


def _nonempty(read: Callable[[Sequence], object]) -> Callable[[Sequence], bool]:
    """Whether ``read`` finds some candidate, tested by the first one: a
    lazy read (a label scan, a ``map``) is truthy even when empty, and an
    emptied adjacency set is falsy."""

    def test(values: Sequence) -> bool:
        for _ in read(values) or ():
            return True
        return False

    return test


def _found(plan: Plan, own: Sequence[int] | None) -> Callable[[Sequence], bool]:
    """Whether ``plan``'s search finds a match from the values, or from
    those at ``own``, memoised on them."""
    search, start = plan.search, plan.start

    def found(values: Sequence) -> bool:
        for _ in search(start(values)):
            return True
        return False

    if own is None:
        return found
    memo: dict[tuple, bool] = {}

    def test(values: Sequence) -> bool:
        key = tuple([values[i] for i in own])
        verdict = memo.get(key)
        if verdict is None:
            verdict = memo[key] = found(key)
        return verdict

    return test


def _keyed(fetch: Callable, key: Sequence[int]) -> Callable[[Row], object]:
    """``fetch`` called with the values of the ``key`` slots of a row."""
    if len(key) == 1:
        (k,) = key
        return lambda row: fetch(row[k])
    if len(key) == 2:
        a, b = key
        return lambda row: fetch(row[a], row[b])
    get = itemgetter(*key) if key else (lambda row: ())
    return lambda row: fetch(*get(row))


def _step(
    read: Callable[[Row], object],
    lo: int,
    hi: int,
    repeats: Sequence[tuple[int, int]],
    take: Sequence[int],
) -> Step:
    """One atom's search step: write slots ``lo:hi`` once per candidate."""
    if repeats:  # a new variable at several free positions: they must agree

        def step(row: Row) -> Iterator[None]:
            for parts in read(row) or ():
                if all(parts[i] == parts[j] for i, j in repeats):
                    row[lo:hi] = [parts[i] for i in take]
                    yield

    elif lo == hi:

        def step(row: Row) -> Iterator[None]:
            if read(row):
                yield

    elif hi - lo == 1:

        def step(row: Row) -> Iterator[None]:
            for row[lo] in read(row) or ():
                yield

    else:

        def step(row: Row) -> Iterator[None]:
            for row[lo:hi] in read(row) or ():
                yield

    return step
