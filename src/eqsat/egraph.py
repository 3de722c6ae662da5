"""Union-find e-graph with hash-consing and delayed rebuilding.

Congruence repair is deferred, as in egg: each class keeps its parents as
(parent e-node, parent class) pairs, and a merge queues the merged-away
class's parents on `pending`. `rebuild` makes each queued parent canonical
and merges it with the class the hashcons already holds for it, until no
congruence is left. One pass over the classes then makes every node set
canonical and free of duplicates and builds the hashcons `memo` again, so
after a rebuild `memo` holds exactly the canonical e-nodes. A rebuild that
finds no queued work skips the pass: every merge since the last one was of a
class no node names, so every node is canonical already.

Every key of `memo` is an e-node of the class it maps to (up to `find`),
whether it is canonical or stale: it was canonical when `add_enode` or
`rebuild` stored it, and a merge since then only made its children stale.
So `add_enode` and `lookup` first probe `memo` with the node as given, and
canonicalize it and probe again only on a miss. A node equal to a stale key
has the key's children, so it is the key's e-node and lies in its class.
Most nodes a rule adds are found this way, with no `canonicalize` call; a
stale node found so resolves to its own class before the next rebuild, where
a canonical probe could find a class it is not yet merged with.

Registered analyses are kept up to date the same way: `make` runs when a node
is added, `join` when two classes merge, and a merge or a node made again
that changes a class's value queues the class's parents, which `rebuild`
makes again once congruence is closed. An analysis only computes values: it
adds no node and merges no class, so classes are merged only by rule
applications and by congruence.

An in-range id `i` with `_uf[i] == i` is canonical: hot paths use it as it is
and call `find`, with its `UnknownId` check, only on the other ids.

`classes` lists the canonical ids in increasing order, by construction: ids
are allocated in increasing order, `add_enode` is the only place that
inserts a class, at the end, and `merge` only deletes. So `canonical_ids` and
`nodes_by_op` read the ids in order with no sort.

`nodes_by_op` groups the operator e-nodes by operator and arity, and within
that by class: `{(op, arity): {class id: [(children, stamp), ...]}}`, in the
relational view of e-matching (Zhang et al., *Relational E-Matching*, POPL
2022). The matcher reads a class's nodes of one operator from it in two dict
lookups.

Every row, an (e-node, class) pair, carries a birth stamp: the number of the
rebuild at which the pair first appeared (`rebuilds` counts them). A class
maps each of its nodes to its stamp. A row added or moved by a merge since
the last rebuild takes the number of the next one, and so does a node whose
canonical form the next rebuild changes; every other row keeps its stamp. A
class's own `stamp` is the last rebuild at which it was made, gained rows by
a merge, or changed its analysis value: what a guard reads of a class (its
literals and its data) changes only then. Pairs that disappear never come
back (a class id or child id, once not canonical, stays so), so a row stamped
no later than some rebuild existed at that rebuild, with the same children.
The matcher uses the stamps to build only matches newer than a given
rebuild, as in semi-naive evaluation (Zhang et al.; *egglog*, PLDI 2023).
"""

from __future__ import annotations

import math
from operator import is_
from typing import Iterable, NamedTuple, Optional, Union

from .errors import AnalysisDiverged, CapacityExceeded, UnknownId
from .terms import Atom, Compound, Lit, Term, fold_tree, print_term

# Sentinel for "analysis value not computable yet" (distinct from any domain
# value, including None-as-unknown).
MISSING = object()


class OpNode(NamedTuple):
    """Operator e-node. A tuple, so that hashcons lookups hash and compare
    it in C."""

    op: str
    children: tuple[int, ...]


# A leaf e-node is the term leaf itself: an `Atom` or a `Lit`.
ENode = Union[Atom, Lit, OpNode]


class EClass:
    __slots__ = ("id", "nodes", "lits", "parents", "data", "stamp")

    def __init__(self, cid: int, stamp: int):
        self.id = cid
        # insertion-ordered node set, each node mapped to its row's stamp
        self.nodes: dict[ENode, int] = {}
        # the `Lit` nodes of `nodes`, in their order: a guard reads them with
        # no scan of the class. Only `add_enode` and `merge` change them, as
        # a rebuild changes no leaf
        self.lits: tuple[Lit, ...] = ()
        self.parents: list[tuple[ENode, int]] = []
        self.data: dict[str, object] = {}
        self.stamp = stamp  # see the module docstring


class EGraph:
    def __init__(self, node_limit: Optional[int] = None):
        self._uf: list[int] = []
        self.memo: dict[ENode, int] = {}  # the e-node set: canonical after rebuild
        self.classes: dict[int, EClass] = {}
        self.pending: list[tuple[ENode, int]] = []  # parents to make canonical
        self.analysis_worklist: list[tuple[ENode, int]] = []  # nodes to make again
        self.node_limit = node_limit
        self.class_limit: Optional[int] = None  # `saturate` sets it for a run
        self.version = 0
        self.analyses: dict[str, object] = {}  # registered analyses, by name
        self._by_op: tuple[int, dict] = (-1, {})  # (version, `nodes_by_op` index)
        self.rebuilds = 0  # the number of rebuilds; the stamp the last one gave
        self._rebuilt_version = 0  # `version` at the end of the last rebuild

    # -- union-find --------------------------------------------------------

    def find(self, i: int) -> int:
        uf = self._uf
        if not 0 <= i < len(uf):
            raise UnknownId(i)
        root = uf[i]
        if root == i:
            return i
        while uf[root] != root:
            root = uf[root]
        while uf[i] != root:  # path compression
            uf[i], i = root, uf[i]
        return root

    def _alloc(self) -> int:
        cid = len(self._uf)
        self._uf.append(cid)
        return cid

    # -- adding ------------------------------------------------------------

    def canonicalize(self, n: ENode) -> ENode:
        if type(n) is not OpNode:
            return n
        uf = self._uf
        size = len(uf)
        for c in n.children:
            if not (0 <= c < size and uf[c] == c):
                break
        else:
            return n  # every child is a root: no `find` call is needed
        children = tuple(map(self.find, n.children))
        if children != n.children:
            return tuple.__new__(OpNode, (n.op, children))
        return n

    def add_enode(self, n: ENode) -> int:
        cid = self.memo.get(n)  # a memo key, stale or not, names its node's class
        if cid is None:
            m = self.canonicalize(n)
            if m is not n:
                n = m
                cid = self.memo.get(n)
        if cid is not None:
            # a memo id was allocated, so it is in range
            return cid if self._uf[cid] == cid else self.find(cid)
        # a new node makes a new class: the only place a class is made
        if self.node_limit is not None and len(self.memo) >= self.node_limit:
            raise CapacityExceeded(f"e-node limit {self.node_limit} reached", "enode-limit")
        if self.class_limit is not None and len(self.classes) >= self.class_limit:
            raise CapacityExceeded(f"e-class limit {self.class_limit} reached", "eclass-limit")
        cid = self._alloc()
        stamp = self.rebuilds + 1  # a row made since the last rebuild
        cls = EClass(cid, stamp)
        cls.nodes[n] = stamp
        self.classes[cid] = cls
        self.memo[n] = cid
        if type(n) is OpNode:
            classes = self.classes
            for ch in n.children:  # canonical, so each names its class
                classes[ch].parents.append((n, cid))
        elif type(n) is Lit:
            cls.lits = (n,)
        self.version += 1
        for an in self.analyses.values():
            v = an.make(self, n)
            if v is not MISSING:
                cls.data[an.name] = v
        return cid

    def add_term(self, t: Term) -> int:
        return self._fold(t, self.add_enode)

    def lookup(self, n: ENode) -> Optional[int]:
        cid = self.memo.get(n)  # as in `add_enode`
        if cid is None:
            m = self.canonicalize(n)
            if m is not n:
                cid = self.memo.get(m)
        if cid is None or self._uf[cid] == cid:  # a memo id is in range
            return cid
        return self.find(cid)

    def lookup_term(self, t: Term) -> Optional[int]:
        return self._fold(t, self.lookup)

    def _fold(self, t: Term, place) -> Optional[int]:
        """`place` applied to the e-node of every subterm of `t`, children
        first and left to right: the class of `t`, or None when `place`
        gives None for some subterm, whose parents are then not placed."""

        def leaf(x):
            if isinstance(x, (Atom, Lit)):
                return place(x)
            raise TypeError(f"not a term: {x!r}")

        def node(x, ids):
            return None if None in ids else place(OpNode(x.op, tuple(ids)))

        return fold_tree(t, Compound, leaf, node)

    # -- merging and rebuilding --------------------------------------------

    def merge(self, a: int, b: int) -> int:
        uf = self._uf
        size = len(uf)
        if not (0 <= a < size and uf[a] == a):
            a = self.find(a)
        if not (0 <= b < size and uf[b] == b):
            b = self.find(b)
        if a == b:
            return a
        ca, cb = self.classes[a], self.classes[b]
        # union by parent-list size, ties to the smaller id
        if (len(cb.parents), -b) > (len(ca.parents), -a):
            a, b, ca, cb = b, a, cb, ca
        uf[b] = a
        changed_a = changed_b = False
        for an in self.analyses.values():
            da, db = ca.data.get(an.name, MISSING), cb.data.get(an.name, MISSING)
            d = da if db is MISSING else db if da is MISSING else an.join(da, db)
            if d is not MISSING:
                ca.data[an.name] = d
            changed_a = changed_a or not _data_eq(da, d)
            changed_b = changed_b or not _data_eq(db, d)
        # a side's parents were made from its old value
        if changed_a:
            self.analysis_worklist.extend(ca.parents)
        if changed_b:
            self.analysis_worklist.extend(cb.parents)
        stamp = self.rebuilds + 1
        ca.nodes.update(dict.fromkeys(cb.nodes, stamp))  # new rows of a
        if cb.lits:  # a literal node lies in one class, so none repeats
            ca.lits += cb.lits
        ca.stamp = stamp
        ca.parents.extend(cb.parents)
        self.pending.extend(cb.parents)  # their nodes name b, no longer canonical
        del self.classes[b]
        self.version += 1
        return a

    def rebuild(self) -> None:
        canonical = not (self.pending or self.analysis_worklist)
        # propagation merges nothing, so it runs once congruence is closed
        while self.pending:
            n, cid = self.pending.pop()
            other = self.memo.setdefault(self.canonicalize(n), cid)
            if other != cid:
                self.merge(other, cid)
        self._propagate()
        now = self.rebuilds = self.rebuilds + 1
        self._rebuilt_version = self.version
        if canonical:
            return  # rows added since the last rebuild carry `now` already
        canonicalize = self.canonicalize
        memo = {}
        for cid, cls in self.classes.items():
            nodes = cls.nodes
            forms = list(map(canonicalize, nodes))
            if not all(map(is_, forms, nodes)):
                # a changed form is a new row; one equal to a node the class
                # already held keeps that node's row and stamp
                rows = dict.fromkeys(forms, now)
                for m, n, stamp in zip(forms, nodes, nodes.values()):
                    if m is n:
                        rows[m] = stamp
                cls.nodes = nodes = rows
            memo.update(dict.fromkeys(nodes, cid))
        self.memo = memo
        self._by_op = (-1, {})  # the pass may have changed nodes, not the version

    def _propagate(self) -> None:
        """Make each queued node again and join the value into its class; a
        class whose value changes queues its parents."""
        work = self.analysis_worklist
        budget = 10 * max(1, len(self.classes))
        while work:
            n, cid = work.pop()
            for an in self.analyses.values():
                v = an.make(self, n)
                if v is MISSING:
                    continue
                cls = self.classes[self.find(cid)]
                old = cls.data.get(an.name, MISSING)
                new = v if old is MISSING else an.join(old, v)
                if _data_eq(old, new):
                    continue
                budget -= 1
                if budget < 0:
                    raise AnalysisDiverged(f"analysis {an.name} did not stabilize")
                cls.data[an.name] = new
                cls.stamp = self.rebuilds + 1
                work.extend(cls.parents)

    # -- inspection --------------------------------------------------------

    @property
    def n_eclasses(self) -> int:
        return len(self.classes)

    @property
    def n_enodes(self) -> int:
        """Distinct canonical e-nodes once the graph is rebuilt."""
        return len(self.memo)

    def is_rebuilt(self) -> bool:
        """Whether nothing was added or merged since the last rebuild, so
        that every node is canonical and every row carries its stamp."""
        return self.version == self._rebuilt_version and not self.analysis_worklist

    def canonical_ids(self) -> list[int]:
        return list(self.classes)  # in increasing order (see the module docstring)

    def nodes_by_op(
        self,
    ) -> dict[tuple[str, int], dict[int, list[tuple[tuple[int, ...], int]]]]:
        """(operator, arity) -> {canonical class id: a row (children, stamp)
        for each of the class's `OpNode`s with that operator and arity}. Class
        ids come in increasing order, and a class's rows in node insertion
        order, the order a scan of the class would take. Built again only
        after the graph has changed (every add and merge moves `version`, and
        `rebuild` drops the index), so the read-only search phase of an
        iteration shares one build."""
        version, index = self._by_op
        if version != self.version:
            index = {}
            for cid, cls in self.classes.items():
                for n, stamp in cls.nodes.items():
                    if type(n) is OpNode:
                        op, ch = n
                        key = (op, len(ch))
                        rows = index.get(key)
                        if rows is None:
                            index[key] = {cid: [(ch, stamp)]}
                        elif cid in rows:
                            rows[cid].append((ch, stamp))
                        else:
                            rows[cid] = [(ch, stamp)]
            self._by_op = (self.version, index)
        return index

    def class_nodes(self, cid: int) -> Iterable[ENode]:
        uf = self._uf
        if not (0 <= cid < len(uf) and uf[cid] == cid):
            cid = self.find(cid)
        return self.classes[cid].nodes.keys()

    def class_lits(self, cid: int) -> tuple[Lit, ...]:
        """The `Lit` nodes of the class of `cid`, in node order: those of
        `class_nodes`, kept apart so that a guard need not scan the class."""
        uf = self._uf
        if not (0 <= cid < len(uf) and uf[cid] == cid):
            cid = self.find(cid)
        return self.classes[cid].lits

    def getdata(self, cid: int, name: str, default=None):
        uf = self._uf
        if not (0 <= cid < len(uf) and uf[cid] == cid):
            cid = self.find(cid)
        return self.classes[cid].data.get(name, default)

    def dump(self) -> str:
        lines = []
        for cid in self.canonical_ids():
            cls = self.classes[cid]
            parts = [_node_str(n) for n in cls.nodes]
            line = f"c{cid}: " + ", ".join(parts)
            if cls.data:
                data = ", ".join(f"{k}={v}" for k, v in sorted(cls.data.items()))
                line += f" [data: {data}]"
            lines.append(line)
        return "\n".join(lines)


def _node_str(n: ENode) -> str:
    if type(n) is not OpNode:
        return print_term(n)
    inner = " ".join(f"c{c}" for c in n.children)
    return f"({n.op} {inner})" if inner else f"({n.op})"


def _data_eq(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return a == b
