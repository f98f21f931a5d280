"""Propositional formulas as immutable operator trees over indexed variables.

A :class:`Formula` couples an operator tree with an explicit scope: the
variable block x1..xn that evaluation and counting range over. The scope may
exceed the highest variable that actually occurs; every unused scope variable
doubles the model count, and the count-shaping gadgets rely on exactly that.

Trees may share immutable subtrees: a parse shares each atom's node, and
rewriting returns untouched subtrees as they are. Size and equality are
still those of the tree written out in full.

Hashes hold no variable index, so a tree and its copy moved by
:meth:`Formula.shift` hash alike, while equality tells them apart. Only
sort orders and dict buckets read hashes. Equality is one walk,
``Node.__eq__``, on an explicit stack, so trees of any depth compare; only
:meth:`Node.restrict` and :meth:`Node.eval_mask` recurse.

Size means the number of Boolean operators (not/and/or nodes); variables and
constants are free. Gadget constructors build fixed right-folded shapes and
never simplify, so size stays an exact, testable quantity.

Trees are rewritten in exactly two ways:

* Restriction, :meth:`Node.restrict`, sets one variable to a constant and
  folds the constants this introduces. The splitting counter and the
  chooser solver call it once per variable they fix; a subtree that does
  not mention the variable comes back as the same object.
* Renaming, :func:`renamed`, moves variables to new indices and never
  folds, so shape and size stay exact. :meth:`Formula.shift` uses it to
  place gadget operands on fresh variable blocks, and the solver uses it
  to put the chooser block first.

:class:`Formula` and every other value class of the package derive from one
immutable record base, :class:`_Record`.
"""

from __future__ import annotations

from types import FunctionType
from typing import Iterable, Mapping, Sequence


class ScopeError(ValueError):
    """A variable index or assignment does not fit the declared scope."""


class Node:
    """Base class for operator-tree nodes.

    Nodes are immutable after construction and cache their hash, operator
    count and occurring-variable range, so equality tests, size queries and
    scope validation stay cheap on shared subtrees. A hash is built from
    integers only, so it is the same in every process whatever its
    string-hash seed, and so is every order that sorts by it: a tag per node
    type, and for ``And`` and ``Or`` the children's hashes and the gap
    between their lowest variables. No hash holds a variable index, so
    shifting every index by one offset keeps every hash; only sort orders
    and dict buckets read them. Equality stays absolute: it compares type,
    hash and ``min_var`` at every pair of nodes in one walk.
    """

    __slots__ = ("hash_", "ops", "min_var", "max_var")

    hash_: int
    ops: int
    min_var: int
    max_var: int

    def __hash__(self) -> int:
        return self.hash_

    def __eq__(self, other: object) -> bool:
        # one walk over both trees on an explicit stack, so any depth is
        # safe. Equal types, hashes and min_vars at every pair are the
        # test: an equal min_var fixes a Var and an equal hash a constant.
        # The walk goes down left children and stacks the right pairs; a
        # subtree that both share is equal without a walk
        stack: list[tuple[Node, Node]] = []
        x, y = self, other
        while True:
            if x is not y:
                kind = type(x)
                if type(y) is not kind or y.hash_ != x.hash_ or y.min_var != x.min_var:
                    return False
                if kind is Not:
                    x, y = x.child, y.child
                    continue
                if kind is And or kind is Or:
                    if x.right is not y.right:
                        stack.append((x.right, y.right))
                    x, y = x.left, y.left
                    continue
            if not stack:
                return True
            x, y = stack.pop()

    def eval_mask(self, mask: int) -> bool:
        """Truth value under the assignment whose bit i-1 is variable i."""
        raise NotImplementedError

    def restrict(self, var: int, value: bool) -> "Node":
        """Substitute one variable by a constant and fold constants away.

        Count-preserving over any scope: the substituted variable simply no
        longer occurs. Used by the splitting counter.
        """
        raise NotImplementedError


class _Const(Node):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value
        self.ops = 0
        self.min_var = 0
        self.max_var = 0
        self.hash_ = hash((0, value))

    def __repr__(self) -> str:
        return "TRUE" if self.value else "FALSE"

    def eval_mask(self, mask: int) -> bool:
        return self.value

    def restrict(self, var: int, value: bool) -> Node:
        return self


TRUE = _Const(True)
FALSE = _Const(False)


class Var(Node):
    """A propositional variable, identified by its 1-based index."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 1:
            raise ScopeError(f"variable index must be >= 1, got {index}")
        self.index = index
        self.ops = 0
        self.min_var = index
        self.max_var = index
        self.hash_ = hash((1,))

    def __repr__(self) -> str:
        return f"x{self.index}"

    def eval_mask(self, mask: int) -> bool:
        return bool((mask >> (self.index - 1)) & 1)

    def restrict(self, var: int, value: bool) -> Node:
        if var != self.index:
            return self
        return TRUE if value else FALSE


class Not(Node):
    """Negation."""

    __slots__ = ("child",)

    def __init__(self, child: Node):
        self.child = child
        self.ops = child.ops + 1
        self.min_var = child.min_var
        self.max_var = child.max_var
        self.hash_ = hash((2, child.hash_))

    def __repr__(self) -> str:
        return f"Not({self.child!r})"

    def eval_mask(self, mask: int) -> bool:
        return not self.child.eval_mask(mask)

    def restrict(self, var: int, value: bool) -> Node:
        if var < self.min_var or var > self.max_var:
            return self
        child = self.child.restrict(var, value)
        if child is self.child:
            return self
        if child is TRUE:
            return FALSE
        if child is FALSE:
            return TRUE
        return Not(child)


class _Binary(Node):
    """A binary operator; ``tag`` tells ``And`` from ``Or`` in the hash."""

    __slots__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        self.left = left
        self.right = right
        self.ops = left.ops + right.ops + 1
        # min_var 0 means "no variables"; the hash holds the gap between the
        # children's lowest variables, and 0 in its place beside a constant
        low, high = left.min_var, right.min_var
        if low and high:
            self.min_var, gap = (low if low < high else high), high - low
        else:
            self.min_var, gap = low or high, 0
        self.max_var = left.max_var if left.max_var > right.max_var else right.max_var
        self.hash_ = hash((self.tag, left.hash_, right.hash_, gap))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.left!r}, {self.right!r})"

    def __init_subclass__(cls) -> None:
        # a copy of __init__'s code per subclass: CPython caches attribute
        # access per code object and type, which And and Or would thrash
        cls.__init__ = FunctionType(_Binary.__init__.__code__.replace(), globals())


class And(_Binary):
    """Binary conjunction."""

    __slots__ = ()
    tag = 3

    def eval_mask(self, mask: int) -> bool:
        return self.left.eval_mask(mask) and self.right.eval_mask(mask)

    def restrict(self, var: int, value: bool) -> Node:
        if var < self.min_var or var > self.max_var:
            return self
        left = self.left.restrict(var, value)
        if left is FALSE:
            return FALSE
        right = self.right.restrict(var, value)
        if right is FALSE:
            return FALSE
        if left is TRUE:
            return right
        if right is TRUE:
            return left
        if left is self.left and right is self.right:
            return self
        return And(left, right)


class Or(_Binary):
    """Binary disjunction."""

    __slots__ = ()
    tag = 4

    def eval_mask(self, mask: int) -> bool:
        return self.left.eval_mask(mask) or self.right.eval_mask(mask)

    def restrict(self, var: int, value: bool) -> Node:
        if var < self.min_var or var > self.max_var:
            return self
        left = self.left.restrict(var, value)
        if left is TRUE:
            return TRUE
        right = self.right.restrict(var, value)
        if right is TRUE:
            return TRUE
        if left is FALSE:
            return right
        if right is FALSE:
            return left
        if left is self.left and right is self.right:
            return self
        return Or(left, right)


def and_all(nodes: Iterable[Node]) -> Node:
    """Right-folded conjunction chain; the empty chain folds to TRUE."""
    items = list(nodes)
    if not items:
        return TRUE
    out = items[-1]
    for node in reversed(items[:-1]):
        out = And(node, out)
    return out


def or_all(nodes: Iterable[Node]) -> Node:
    """Right-folded disjunction chain; the empty chain folds to FALSE."""
    items = list(nodes)
    if not items:
        return FALSE
    out = items[-1]
    for node in reversed(items[:-1]):
        out = Or(node, out)
    return out


def renamed(root: Node, index: Mapping[int, int]) -> Node:
    """Copy of ``root`` with every variable v replaced by ``Var(index[v])``.

    A post-order walk on an explicit stack, so any tree depth is safe. It
    never folds constants, so the copy has exactly the shape and size of
    the original. A subtree shared in the original is shared in the copy,
    and a variable-free subtree is reused as it is.
    """
    # done maps id(original) to its copy; the originals outlive the walk,
    # so no id is reused. A node whose children are not copied yet goes
    # back on the stack below them.
    done: dict[int, Node] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        key = id(node)
        if key in done:
            continue
        kind = type(node)
        if node.min_var == 0:
            done[key] = node
        elif kind is Var:
            done[key] = Var(index[node.index])
        elif kind is Not:
            child = done.get(id(node.child))
            if child is None:
                stack += (node, node.child)
                continue
            done[key] = Not(child)
        else:
            left = done.get(id(node.left))
            right = done.get(id(node.right))
            if left is None or right is None:
                stack += (node, node.right, node.left)
                continue
            done[key] = kind(left, right)
    return done[id(root)]


class _Record:
    """Base of the package's immutable value records.

    A subclass names its fields in ``__match_args__`` (its ``__slots__`` may
    also hold ``__weakref__``), and its ``__init__`` checks them and passes
    them here. A record equals one of its own type with equal fields,
    hashes, shows and pickles by them, and refuses any setting or deleting.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init__(self, *fields: object) -> None:
        for name, value in zip(self.__match_args__, fields):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__match_args__))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self.__match_args__, self._fields()))
        return f"{type(self).__name__}({shown})"

    def __eq__(self, other: object):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


class Formula(_Record):
    """An operator tree together with its declared variable scope.

    The scope is explicit rather than inferred from the highest occurring
    variable: counting always ranges over all scope variables, so a scope-3
    formula mentioning only x1 has twice the models of its scope-2 twin.

    Immutable: a :class:`_Record` on its two fields, so two formulas are
    equal when their trees and scopes are, and hash alike then.
    """

    __slots__ = ("node", "scope", "__weakref__")
    __match_args__ = ("node", "scope")

    node: Node
    scope: int

    def __init__(self, node: Node, scope: int) -> None:
        if scope < 0:
            raise ScopeError(f"scope must be nonnegative, got {scope}")
        if node.max_var > scope:
            raise ScopeError(f"variable x{node.max_var} exceeds declared scope {scope}")
        super().__init__(node, scope)

    def size(self) -> int:
        """Number of Boolean operators (not/and/or nodes) in the tree."""
        return self.node.ops

    def evaluate(self, assignment: Sequence[bool]) -> bool:
        """Truth value under ``assignment``, where position k-1 holds variable k."""
        if len(assignment) != self.scope:
            raise ScopeError(
                f"assignment has {len(assignment)} values for scope {self.scope}"
            )
        mask = 0
        for position, bit in enumerate(assignment):
            if bit:
                mask |= 1 << position
        return self.node.eval_mask(mask)

    def shift(self, offset: int) -> "Formula":
        """Relocate every variable index upward by ``offset``, widening the scope.

        Pure index relocation: the freed low block x1..x_offset is left
        unconstrained, so callers wanting an exact count contract must
        conjoin their own constraints on it.
        """
        if offset < 0:
            raise ScopeError(f"shift offset must be nonnegative, got {offset}")
        if offset == 0:
            return self
        node = self.node
        index = {v: v + offset for v in range(node.min_var, node.max_var + 1)}
        return Formula(renamed(node, index), self.scope + offset)

    def negate(self) -> "Formula":
        """The complement formula over the same scope."""
        return Formula(Not(self.node), self.scope)
