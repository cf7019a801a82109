"""Defining-set search with equivalence-based pruning and JSONL persistence.

The search space at a given length is the lattice of coset-closed defining
sets. Certificate maps (multipliers, admissible shifts of cyclic codes, the
fixed monomial transforms) partition that space into orbits; only one
representative per orbit needs a distance evaluation, and every other member
inherits the bounds along a recorded witness chain.

A defining set is held only as its coset mask (bit order: ``SetFamily``),
and an index map acts on all masks at once through its coset count matrix.
``classify_cyclic`` and ``palfy_classify`` are views of the orbits.

Evaluation is sequential in representative order, so reruns of the same job
with the same seed produce byte-identical output files; records carry work
counters instead of wall-clock times for the same reason.
"""

import json
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .constacyclic import build_code
from .cosets import (
    IndexMap,
    SetFamily,
    generalized_multipliers,
    multiplier,
    set_family,
    shift_map,
    units,
)
from .cyclic import CYCLIC_KINDS, SET_TRANSFORMS
from .linear import (
    WD_COMPARE_CAP,
    min_distance,
    weight_distributions_equal,
)
from .quantum import nearly_self_orthogonal

CONSTA_KINDS = ("multiplier", "affine")
# generalized multipliers join only prime-power lengths and are opt-in, so
# the default cyclic search keeps its orbits
_DEFAULT_CYCLIC = CYCLIC_KINDS[:-1]
_INDEX_KINDS = ("multiplier", "shift", "generalized_multiplier")


@dataclass(frozen=True)
class SearchJob:
    """One enumeration-and-evaluation run over defining sets at length n."""

    family: str
    n: int
    q: int = 4
    k_min: int = 0
    k_max: int | None = None
    distance_budget: int | None = None
    prune: tuple[str, ...] | None = None
    targets: tuple[tuple[int, int, int, int], ...] = ()
    output: str | None = None
    seed: int = 1
    quantum: bool = False

    def __post_init__(self):
        set_family(self.family, self.n, self.q)
        k_max = self.n if self.k_max is None else self.k_max
        object.__setattr__(self, "k_max", k_max)
        if not 0 <= self.k_min <= k_max <= self.n:
            raise ValueError("bad dimension window")
        allowed = CYCLIC_KINDS if self.family == "cyclic" else CONSTA_KINDS
        default = _DEFAULT_CYCLIC if self.family == "cyclic" else CONSTA_KINDS
        prune = default if self.prune is None else tuple(self.prune)
        bad = sorted(set(prune) - set(allowed))
        if bad:
            raise ValueError(f"unknown certificate kinds for {self.family}: "
                             f"{bad}")
        object.__setattr__(self, "prune",
                           tuple(k for k in allowed if k in prune))
        if self.quantum and self.q != 4:
            raise ValueError("quantum evaluation requires q = 4")
        object.__setattr__(self, "targets",
                           tuple(tuple(int(x) for x in row)
                                 for row in self.targets))

    @property
    def context(self) -> SetFamily:
        """Modulus, lane and cosets of the job's defining sets."""
        return set_family(self.family, self.n, self.q)


@dataclass(frozen=True)
class Orbit:
    """One certificate-closure class of defining sets."""

    orbit_id: int
    representative: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    chains: dict = field(compare=False)

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class EvalGroup:
    """The orbits sharing one distance evaluation: one orbit each (see
    ``group_orbits``)."""

    group_id: int
    orbit_ids: tuple[int, ...]
    eval_leaders: tuple[int, ...]


@dataclass(frozen=True)
class SearchRecord:
    """One defining set with its orbit context and inherited bounds."""

    family: str
    n: int
    q: int
    k: int
    leaders: tuple[int, ...]
    orbit_id: int
    orbit_size: int
    group_id: int
    representative: tuple[int, ...]
    chain: tuple
    evaluated: bool
    d_lb: int | None = None
    d_ub: int | None = None
    strategy: str | None = None
    complete: bool | None = None
    work: int = 0
    distance_via: tuple[int, ...] | None = None
    quantum: dict | None = None
    target_d: int | None = None
    beats_target: bool | None = None

    def to_json_dict(self) -> dict:
        return {
            "v": 1, "family": self.family, "n": self.n, "q": self.q,
            "k": self.k, "leaders": list(self.leaders),
            "orbit": self.orbit_id, "orbit_size": self.orbit_size,
            "group": self.group_id,
            "representative": list(self.representative),
            "chain": [list(step) for step in self.chain],
            "evaluated": self.evaluated, "d_lb": self.d_lb,
            "d_ub": self.d_ub, "strategy": self.strategy,
            "complete": self.complete, "work": self.work,
            "distance_via": (None if self.distance_via is None
                             else list(self.distance_via)),
            "via": None, "quantum": self.quantum,
            "target_d": self.target_d, "beats_target": self.beats_target,
        }


class _Space:
    """The defining sets of one job's dimension window, as coset masks.

    ``masks`` ascend, so a mask's row is found by binary search; ``bits``
    holds each row's coset bits as float32 for the count products of
    ``image_edges``.
    """

    def __init__(self, job: SearchJob):
        ctx = self.ctx = job.context
        all_masks = np.arange(len(ctx.masks()), dtype=np.int64)
        self.weights = 1 << np.arange(len(ctx.cosets), dtype=np.int64)
        bits = (all_masks[:, None] & self.weights) != 0
        self.coset_sizes = np.array([len(c) for c in ctx.cosets])
        sizes = bits @ self.coset_sizes
        lo, hi = job.n - job.k_max, job.n - job.k_min
        keep = (sizes >= lo) & (sizes <= hi)
        self.masks = all_masks[keep]
        self.sizes = sizes[keep]
        self.bits = bits[keep].astype(np.float32)

    def position(self, mask: int) -> int | None:
        """Row of ``mask``, or None when it lies outside the window."""
        i = int(np.searchsorted(self.masks, mask))
        return i if i < len(self.masks) and self.masks[i] == mask else None

    def image_edges(self, imap: IndexMap, admissible=True):
        """Rows that ``imap`` moves onto another admissible set, and targets.

        Entry [i, j] of ``counts`` is the number of elements of coset i
        that ``imap`` sends into coset j, so ``bits @ counts`` counts each
        row's image in every coset (a float32 sum of at most the modulus,
        so exact).  An image is closed when each count is 0 or the coset's
        size; its mask is the set of full cosets, and a bijection keeps
        sizes, so it lies in the window.  Only the rows that meet the side
        condition ``admissible`` are mapped, and an image counts when it
        is closed and differs from its row.
        """
        counts = np.zeros((len(self.ctx.cosets),) * 2, dtype=np.float32)
        for i, coset in enumerate(self.ctx.cosets):
            for x in coset:
                counts[i, self.ctx.bit_of[imap(x)]] += 1
        rows = np.flatnonzero(np.broadcast_to(admissible, self.masks.shape))
        image = self.bits[rows] @ counts
        full = image == self.coset_sizes
        closed = (full | (image == 0)).all(axis=1)
        rows, image_masks = rows[closed], full[closed] @ self.weights
        moved = image_masks != self.masks[rows]
        return rows[moved], np.searchsorted(self.masks, image_masks[moved])


class _Forest:
    """Union-find over 0..size-1 that records the edges joining two classes.

    Every class is rooted at its least node, so roots do not depend on the
    order of the unions.
    """

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.edges: list[tuple[int, int, object]] = []

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int, label) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        self.edges.append((a, b, label))
        return True

    def roots(self) -> np.ndarray:
        root = np.array(self.parent, dtype=np.int64)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                return root
            root = up

    def union_all(self, a: np.ndarray, b: np.ndarray, label) -> None:
        """union(a[i], b[i], label) in order of i.

        Pairs already joined when the call starts are dropped up front;
        they would not join anything, so the recorded edges are the same.
        """
        if not a.size:
            return
        root = self.roots()
        keep = root[a] != root[b]
        for x, y in zip(a[keep].tolist(), b[keep].tolist()):
            self.union(x, y, label)

    def classes(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, r in enumerate(self.roots().tolist()):
            out.setdefault(r, []).append(i)
        return out


def _index_maps(space: _Space, job: SearchJob):
    """The index-map certificates of the job, each with its side condition."""
    ctx = job.context
    m = ctx.modulus
    if "multiplier" in job.prune or "affine" in job.prune:
        # e * q^j acts on q-closed sets as e does: one unit per class
        for e in ctx.multipliers:
            if ctx.table.leader_of(e) == e != 1:
                yield multiplier(m, e), True
    if "generalized_multiplier" in job.prune:
        for g in generalized_multipliers(job.n):
            yield g, True
    if "affine" in job.prune and ctx.shifts_are_isometries:
        # every affine map factors as an admissible shift followed by a
        # multiplier, so shift edges complete the affine closure
        for b in ctx.shifts[1:]:
            yield shift_map(m, b), ctx.admits_shift(space.sizes, b)


def _union_phase(space: _Space, job: SearchJob):
    """Union-find closure with a spanning forest of witness edges."""
    forest = _Forest(len(space.masks))
    for imap, admissible in _index_maps(space, job):
        rows, targets = space.image_edges(imap, admissible)
        forest.union_all(rows, targets, (imap.kind,) + imap.params)

    ctx = job.context
    rules = [t for t in SET_TRANSFORMS.values()
             if t.kind in job.prune and t.rule_at(job.n, job.q)]
    # these partners depend on the shape of the set, so each set is visited
    for a, mask in enumerate(space.masks.tolist() if rules else ()):
        S = frozenset(ctx.union_of(mask))
        for rule in rules:
            T = rule.partner(S, job.n, job.q)
            if T is not None and T != S:
                b = space.position(ctx.mask_of(T))
                if b is not None:
                    forest.union(a, b, (rule.kind,))
    return forest.classes(), forest.edges


def _step_map(step: tuple, modulus: int) -> IndexMap:
    return IndexMap(step[0], modulus, tuple(step[1:]))


@lru_cache(maxsize=1024)
def _invert_step(step: tuple, modulus: int) -> tuple:
    if step[0] in _INDEX_KINDS:
        inverse = _step_map(step, modulus).inverse()
        return (inverse.kind,) + inverse.params
    # the set transforms are involutions
    return step


def apply_step(job: SearchJob, elements: frozenset, step: tuple) -> frozenset:
    """Apply one witness step to a defining set."""
    kind = step[0]
    if kind in _INDEX_KINDS:
        imap = _step_map(step, job.context.modulus)
        return frozenset(imap(x) for x in elements)
    row = SET_TRANSFORMS.get(kind)
    if row is not None and row.partner is not None:
        return row.partner(elements, job.n, job.q)
    raise ValueError(f"unknown step kind {kind!r}")


def apply_chain(job: SearchJob, elements: frozenset, chain) -> frozenset:
    for step in chain:
        elements = apply_step(job, elements, tuple(step))
    return elements


def enumerate_orbits(job: SearchJob) -> list[Orbit]:
    """All admissible defining sets grouped into certificate orbits.

    Returns orbits sorted by their lexicographically-least leader list;
    every member carries a witness chain back to the representative.  The
    union phase keeps only the edges that join two classes, so each orbit
    is a tree and a member's chain is its one path to the representative,
    whatever order the walk takes.
    """
    space = _Space(job)
    roots, forest = _union_phase(space, job)
    modulus = job.context.modulus

    # each entry is (neighbour, step from the neighbour back)
    adjacency: dict[int, list[tuple[int, tuple]]] = {}
    for a, b, step in forest:
        adjacency.setdefault(a, []).append((b, _invert_step(step, modulus)))
        adjacency.setdefault(b, []).append((a, step))

    leaders_of = job.context.leaders_of
    masks = space.masks.tolist()
    orbits = []
    for members in roots.values():
        by_leaders = sorted((leaders_of(masks[i]), i) for i in members)
        rep_leaders, rep_pos = by_leaders[0]
        stack = [rep_pos]
        chain_at = {rep_pos: ()}
        while stack:
            u = stack.pop()
            for v, back in adjacency.get(u, ()):
                if v not in chain_at:
                    # back maps v's set to u's; prepend it so the chain
                    # maps v toward the representative
                    chain_at[v] = (back,) + chain_at[u]
                    stack.append(v)
        assert len(chain_at) == len(members), "witness forest missed a member"
        chains = {leaders: chain_at[i] for leaders, i in by_leaders}
        orbits.append((rep_leaders,
                       tuple(l for l, _ in by_leaders), chains))
    orbits.sort(key=lambda t: t[0])
    out = [Orbit(i, rep, members, chains)
           for i, (rep, members, chains) in enumerate(orbits)]
    assert sum(o.size for o in out) == len(space.masks), \
        "orbit sizes do not add up to the admissible-set count"
    return out


def group_orbits(job: SearchJob, orbits: list[Orbit]) -> list[EvalGroup]:
    """One evaluation group per orbit, evaluated at its representative.

    Where admissible shifts are isometries (cyclic jobs) they already join
    orbits.  For constacyclic jobs a shift is no isometry, but every
    coset-closed shift of a set is a lane multiplier's image, which the
    orbit already holds.  Let A be a union of 4-cyclotomic cosets in the
    lane 1 + 3Z of Z/3nZ, and b a multiple of 3 with A + b coset-closed.
    Then 4(A + b) = A + 4b, so A + 3b = A, and A is a union of cosets of
    the subgroup generated by d = gcd(3b, 3n).  Every prime dividing d
    divides b, so 1 + b is a unit mod d; lift it to a unit e mod 3n, with
    e = 1 (mod 3) since 3 | d.  For x in A, e x = x + b + b(x - 1) +
    (e - 1 - b)x, where both b(x - 1) (as 3 | x - 1) and (e - 1 - b)x lie
    in the subgroup of d, so eA = A + b.  The ``affine`` kind thus joins
    nothing for constacyclic jobs beyond the multipliers.
    """
    return [EvalGroup(i, (o.orbit_id,), o.representative)
            for i, o in enumerate(orbits)]


def classify_cyclic(n: int, q: int,
                    use: tuple[str, ...] = CYCLIC_KINDS,
                    ) -> list[tuple[tuple[int, ...], ...]]:
    """Partition all defining sets at (n, q) into certificate-closure classes.

    The classes are the orbits under the ``use`` kinds (any of
    ``CYCLIC_KINDS``); they are returned sorted, each class a sorted tuple
    of element tuples.
    """
    job = SearchJob("cyclic", n, q, prune=tuple(use))
    closure = job.context.table.closure
    return sorted(tuple(sorted(closure(m) for m in o.members))
                  for o in enumerate_orbits(job))


@dataclass(frozen=True)
class MultiplierOrbit:
    """One orbit of constacyclic defining sets under 1-mod-3 multipliers."""

    leader: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    witnesses: dict  # member -> e with multiplier e carrying leader to member

    def __len__(self) -> int:
        return len(self.members)


def palfy_classify(n: int) -> list[MultiplierOrbit]:
    """The multiplier orbits of all length-n constacyclic defining sets.

    The orbits are the multiplier-only orbits; each leader is the orbit's
    least element tuple, and each witness is a multiplier carrying the
    leader to its member.

    Requires gcd(3n, phi(3n)) = 1.  In that range, codes-with-shared-orbit
    are exactly the isometrically (monomially) equivalent ones: the
    multiplier action is realized on codewords by the power substitution,
    whose coordinate map carries cube-root scale factors.  Any two codes
    equivalent by a bare coordinate permutation always share an orbit, but
    an orbit may join codes that no scale-free permutation links (n=5,
    {1,4} vs {7,13} is such a pair).
    """
    fam = set_family("constacyclic", n, 4)
    m = fam.modulus
    if math.gcd(m, len(units(m))) != 1:
        raise ValueError(f"classification needs gcd(3n, phi(3n)) = 1 at n={n}")
    orbits = []
    for o in enumerate_orbits(SearchJob("constacyclic", n,
                                        prune=("multiplier",))):
        # each chain is a product of multipliers carrying its member to the
        # representative
        to_rep = {tuple(sorted(fam.expand(leaders))):
                  math.prod(step[1] for step in o.chains[leaders]) % m
                  for leaders in o.members}
        leader = min(to_rep)
        witnesses = {member: to_rep[leader] * pow(e, -1, m) % m
                     for member, e in to_rep.items()}
        orbits.append(MultiplierOrbit(leader=leader,
                                      members=tuple(sorted(to_rep)),
                                      witnesses=witnesses))
    return sorted(orbits, key=lambda o: o.leader)


def _expand_leaders(job: SearchJob, leaders) -> frozenset:
    return job.context.expand(leaders)


def _targets_lookup(job: SearchJob) -> dict[tuple[int, int, int], int]:
    best: dict[tuple[int, int, int], int] = {}
    for n, k, q, d in job.targets:
        key = (n, k, q)
        if d > best.get(key, 0):
            best[key] = d
    return best


def evaluate(job: SearchJob, leaders) -> SearchRecord:
    """Build one representative and compute its distance bounds, from the
    BCH floor of its defining set."""
    leaders = tuple(sorted(int(x) for x in leaders))
    A = _expand_leaders(job, leaders)
    base = build_code(job.context, A).base
    length, start, step = job.context.bch_floor(A)
    floor = (length + 1, f"BCH bound: indices {start} + {step}i mod {job.n} "
                         f"for i < {length}")
    res = min_distance(base, budget=job.distance_budget, seed=job.seed,
                       floor=floor)
    qdict = None
    if job.quantum:
        _, qp = nearly_self_orthogonal(base, budget=job.distance_budget,
                                       seed=job.seed)
        qdict = qp.to_dict()
    k = base.k
    target = _targets_lookup(job).get((job.n, k, job.q))
    return SearchRecord(
        family=job.family, n=job.n, q=job.q, k=k, leaders=leaders,
        orbit_id=-1, orbit_size=1, group_id=-1, representative=leaders,
        chain=(), evaluated=True, d_lb=res.lb, d_ub=res.ub,
        strategy=res.strategy, complete=res.complete, work=res.work,
        quantum=qdict, target_d=target,
        beats_target=None if target is None else res.lb > target)


def _spot_check(job: SearchJob, orbits: list[Orbit]) -> None:
    """Sampled-orbit invariant: members share [n,k] and weight distribution."""
    rng = random.Random(job.seed)
    feasible = []
    for o in orbits:
        if o.size < 2:
            continue
        k = job.n - len(_expand_leaders(job, o.representative))
        if 0 < k and job.q ** k <= WD_COMPARE_CAP:
            feasible.append(o)
    if not feasible:
        return
    o = rng.choice(feasible)
    other = rng.choice(o.members[1:])
    c1 = build_code(job.context, _expand_leaders(job, o.representative)).base
    c2 = build_code(job.context, _expand_leaders(job, other)).base
    assert c1.k == c2.k, "orbit members disagree on dimension"
    assert weight_distributions_equal(c1, c2), \
        "orbit members disagree on weight distribution"


def search(job: SearchJob) -> tuple[list[SearchRecord], dict]:
    """Run the full pipeline: enumerate, group, evaluate, persist, report.

    Distance evaluation runs only when the job carries a distance budget;
    otherwise records report orbit structure with null bounds.
    """
    orbits = enumerate_orbits(job)
    groups = group_orbits(job, orbits)
    _spot_check(job, orbits)

    lookup = _targets_lookup(job)
    records: list[SearchRecord] = []
    for o, g in zip(orbits, groups):
        ev = None
        if job.distance_budget is not None or job.quantum:
            ev = evaluate(job, g.eval_leaders)
        k = job.n - len(_expand_leaders(job, o.representative))
        target = lookup.get((job.n, k, job.q))
        for leaders in o.members:
            evaluated = ev is not None and leaders == g.eval_leaders
            rec = SearchRecord(
                family=job.family, n=job.n, q=job.q, k=k, leaders=leaders,
                orbit_id=o.orbit_id, orbit_size=o.size,
                group_id=g.group_id, representative=o.representative,
                chain=o.chains[leaders], evaluated=evaluated,
                d_lb=None if ev is None else ev.d_lb,
                d_ub=None if ev is None else ev.d_ub,
                strategy=ev.strategy if evaluated else None,
                complete=None if ev is None else ev.complete,
                work=ev.work if evaluated else 0,
                distance_via=(None if ev is None or evaluated
                              else g.eval_leaders),
                quantum=ev.quantum if evaluated else None,
                target_d=target,
                beats_target=(None if ev is None or target is None
                              else ev.d_lb > target))
            records.append(rec)

    if job.output:
        with open(job.output, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec.to_json_dict(), sort_keys=True,
                                    separators=(",", ":")) + "\n")

    return records, report(records)


def report(records: list[SearchRecord]) -> dict:
    """Summarize a record stream; improvements require a lower-bound win."""
    total = len(records)
    orbit_ids = {r.orbit_id for r in records}
    group_ids = {r.group_id for r in records}
    evaluated = sum(1 for r in records if r.evaluated)
    incomplete = sum(1 for r in records if r.evaluated and r.complete is False)
    improvements = [
        {"leaders": list(r.leaders), "n": r.n, "k": r.k, "q": r.q,
         "d_lb": r.d_lb, "target_d": r.target_d}
        for r in records
        if r.evaluated and r.beats_target
    ]
    factor = None
    if evaluated:
        factor = round(total / evaluated, 4)
    return {
        "total_sets": total,
        "orbit_count": len(orbit_ids),
        "group_count": len(group_ids),
        "evaluated": evaluated,
        "incomplete": incomplete,
        "pruning_factor": factor,
        "improvements": improvements,
    }


def load_targets(path: str) -> tuple[tuple[int, int, int, int], ...]:
    """Read a best-known-distance table of comma-separated n,k,q,d rows."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [int(x) for x in line.split(",")]
            if len(parts) != 4:
                raise ValueError(f"bad targets row: {line!r}")
            rows.append(tuple(parts))
    return tuple(rows)
