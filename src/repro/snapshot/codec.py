"""The state walk behind whole-machine snapshots.

:func:`capture` starts at a :class:`~repro.system.machine.Machine` and
visits every object's fields — the ``__slots__`` its class declares, in
sorted order — encoding each value as plain data, so the payload is a
tree of builtins that :mod:`repro.snapshot.format`'s restricted
unpickler loads without resolving a single global.  A class with any
MRO entry that declares no ``__slots__`` is refused by name: model
state lives in declared slots, and the walk never reads an instance
``__dict__`` (reading one turns a component's attribute storage into a
plain dict for the rest of the process).  :func:`restore`
walks the tree over a *freshly built* machine and rewrites it in place.

Identity.  One :class:`~repro.common.request.MemoryRequest` may sit in
an MSHR entry, a controller queue and an event's arguments at once.
Every object and mutable container is numbered at its first encounter;
later encounters encode as ``("r", n)``, so restore rebuilds exactly
the captured sharing.

In place, by attribute path.  Every object and container the fresh
machine already has keeps its identity — checker wrappers, cached
:class:`~repro.common.stats.Counter` slots and bank observer lists stay
wired.  Restore first binds each numbered node to the fresh object at
*any* path the tree reaches it by (a core first met through a callback
queued at runtime is bound where the walk later meets it through the
wiring), then decodes.  Only objects the run created are rebuilt, from
one explicit class table, :data:`CLASSES`; the capture visits them
after every component, so their fields never hide a component's path.

Layout.  The tree records the field names of every walked class.  An
unknown class or one whose slots differ from the recorded fields is
refused with :class:`~repro.common.errors.SnapshotSchemaError` — before
any state is applied, because every write to the fresh machine is
collected first.

Left out: frozen dataclasses (config, DRAM timings, sampling plan —
pinned by the fingerprint or the run arguments), encoded as "keep the
fresh value", and the explicit ``__dict__`` slot that
:mod:`repro.validate.hooks` fills with per-instance method wrappers
(instrumentation, not state); :class:`~repro.cpu.trace.BatchCursor` and
the request-id counter keep explicit state, because their state is not
their fields.

Encoding (every tuple is a tagged node; ``n`` numbers a node)::

    None bool int float str bytes  itself     [E, ...] list (n)
    {K: E} dict (n)        ("ds", lengths, keys, values) list of dicts
    of plain data it alone holds, each dict in insertion order, a None
    slot (a cache set not yet built) as length 0 (n)
    ("q", [E], maxlen) deque (n)   ("s", [E]) set (n)
    ("t", (E,)) tuple      ("nt", class, (E,)) namedtuple
    ("e", class, name) enum
    ("o", layout, [E per field]) component (n)   ("r", n) seen before
    ("n", i) run-created object, fields in tree["created"][i]
    ("m", E, name) bound method    ("p", E, (E,), {name: E}) partial
    ("x", state) BatchCursor (n)   ("k",) keep the fresh machine's value
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import sys
import types
from collections import deque
from itertools import chain, islice
from typing import Any, Callable, Dict, List, Tuple

from ..common import request as request_mod
from ..common.errors import SnapshotError, SnapshotFormatError, SnapshotSchemaError
from ..cpu.trace import BatchCursor

__all__ = ["CLASSES", "capture", "restore"]

_PRIMS = frozenset({int, float, str, bool, bytes, type(None)})
_NODES = frozenset({list, dict, tuple})  # encodings that need decoding
_KEEP = ("k",)
_ABSENT = object()


def _class_key(cls: type) -> Tuple[str, str]:
    return cls.__module__, cls.__qualname__


#: Every class restore may instantiate, as ``(module, qualname)``: the
#: objects a run creates, plus the namedtuple and enum types that occur
#: as values.  The walk visits run-created objects after every
#: component; a kind missing here fails the capture with its name.
CLASSES = frozenset({
    ("repro.cache.prefetch", "_StrideEntry"),
    ("repro.common.request", "AccessType"),
    ("repro.common.request", "MemoryRequest"),
    ("repro.common.stats", "Counter"),
    ("repro.cpu.core", "_InFlight"),
    ("repro.memctrl.mapping", "DramCoordinates"),
    ("repro.memctrl.queue", "MrqEntry"),
    ("repro.mshr.base", "MshrEntry"),
    ("repro.stack3d.modes", "_Fill"),
})


#: Sorted declared slot names per class.
_FIELDS: Dict[type, Tuple[str, ...]] = {}


def _slot_names(cls: type) -> Tuple[str, ...]:
    """``cls``'s fields: every slot its MRO declares, sorted; a class
    with an MRO entry that declares no ``__slots__`` is refused."""
    fields = _FIELDS.get(cls)
    if fields is not None:
        return fields
    names = set()
    for klass in cls.__mro__[:-1]:  # all but object
        slots = klass.__dict__.get("__slots__")
        if slots is None:
            raise SnapshotError(
                f"cannot snapshot a {cls.__qualname__}: {klass.__qualname__} "
                "declares no __slots__ (model state lives in declared slots)"
            )
        names.update((slots,) if isinstance(slots, str) else slots)
    fields = _FIELDS[cls] = tuple(sorted(names - {"__dict__", "__weakref__"}))
    return fields


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------
class _Capture:
    def __init__(self) -> None:
        self.numbers: Dict[int, int] = {}  # id(object or container) -> n
        self.created_index: Dict[int, int] = {}
        self.created: List[Any] = []
        self.layouts: Dict[Tuple[str, str, Tuple[str, ...]], int] = {}
        self._created_pass = False

    def tree(self, root: Any) -> dict:
        encoded = self.enc(root)
        self._created_pass = True
        # Objects found while encoding these join the end of the queue.
        created = [self._fields(obj) for obj in self.created]
        return {"layouts": list(self.layouts), "root": encoded, "created": created}

    def enc(self, value: Any) -> Any:
        kind = type(value)
        if kind in _PRIMS:
            return value
        number = self.numbers.get(id(value))
        if number is not None:
            return ("r", number)
        handler = _ENCODERS.get(kind)
        if handler is None:
            handler = _ENCODERS[kind] = _classify(kind)
        return handler(self, value)

    def _number(self, value: Any) -> None:
        self.numbers[id(value)] = len(self.numbers)

    def _fields(self, obj: Any) -> Tuple[int, list]:
        kind = type(obj)
        fields = _FIELDS.get(kind) or _slot_names(kind)
        entry = (kind.__module__, kind.__qualname__, fields)
        layout = self.layouts.setdefault(entry, len(self.layouts))
        return layout, self._items([getattr(obj, name) for name in fields])

    def _items(self, values) -> list:
        enc, prims = self.enc, _PRIMS
        if prims.issuperset(map(type, values)):
            return list(values)
        return [v if type(v) in prims else enc(v) for v in values]

    def _map(self, mapping) -> dict:
        if not mapping:
            return {}
        enc, prims = self.enc, _PRIMS
        if prims.issuperset(map(type, mapping)) and prims.issuperset(
            map(type, mapping.values())
        ):
            return dict(mapping)  # the common case: plain data throughout
        # Key before value, item by item: the order restore numbers in.
        return {
            (k if type(k) in prims else enc(k)): (v if type(v) in prims else enc(v))
            for k, v in mapping.items()
        }

    # -- per-type encoders ---------------------------------------------
    def _list(self, value: list) -> Any:
        self._number(value)
        if value and (value[0] is None or type(value[0]) is dict):
            built = [d for d in value if d is not None]
            if (
                built
                and set(map(type, built)) == {dict}
                # Held by this list alone: its reference, ``built``'s
                # and the call's.
                and set(map(sys.getrefcount, built)) == {3}
            ):
                # Such dicts of plain data (cache and TLB sets) pack into
                # three flat lists instead of a numbered node per dict; a
                # cache set not built yet (``None``) packs as length 0.
                keys = list(chain.from_iterable(built))
                values = list(chain.from_iterable(map(dict.values, built)))
                if _PRIMS.issuperset(map(type, keys)) and _PRIMS.issuperset(
                    map(type, values)
                ):
                    lengths = [0 if d is None else len(d) for d in value]
                    return ("ds", lengths, keys, values)
        return self._items(value)

    def _dict(self, value: dict) -> dict:
        self._number(value)
        return self._map(value)

    def _deque(self, value: deque) -> tuple:
        self._number(value)
        return ("q", self._items(value), value.maxlen)

    def _set(self, value: set) -> tuple:
        self._number(value)
        try:
            # Canonical order: a rebuilt set need not iterate the way the
            # captured one did, and the tree must not depend on it.
            value = sorted(value)
        except TypeError:
            pass
        return ("s", self._items(value))

    def _tuple(self, value: tuple) -> tuple:
        return ("t", tuple(self._items(value)))

    def _namedtuple(self, value: tuple) -> tuple:
        return ("nt", _class_key(type(value)), tuple(self._items(value)))

    def _enum(self, value: enum.Enum) -> tuple:
        return ("e", _class_key(type(value)), value.name)

    def _cursor(self, value: BatchCursor) -> tuple:
        self._number(value)
        return ("x", value.capture_state())

    def _method(self, value: types.MethodType) -> tuple:
        return ("m", self.enc(value.__self__), value.__func__.__name__)

    def _partial(self, value: functools.partial) -> tuple:
        keywords = sorted(value.keywords.items())
        return (
            "p",
            self.enc(value.func),
            tuple(self._items(value.args)),
            {k: self.enc(v) for k, v in keywords},
        )

    def _function(self, value: types.FunctionType) -> tuple:
        raise SnapshotError(
            f"cannot snapshot function {value.__qualname__!r}: event and "
            "request callbacks must be bound methods or partials of them, "
            "not closures"
        )

    def _keep(self, value: Any) -> tuple:
        return _KEEP

    def _created_ref(self, value: Any) -> tuple:
        index = self.created_index.get(id(value))
        if index is None:
            index = self.created_index[id(value)] = len(self.created)
            self.created.append(value)
        return ("n", index)

    def _object(self, value: Any) -> tuple:
        if self._created_pass:
            raise SnapshotError(
                f"{type(value).__qualname__} is reachable only through "
                "objects the run created; add its class to "
                "repro.snapshot.codec.CLASSES"
            )
        self._number(value)
        return ("o",) + self._fields(value)


def _classify(kind: type) -> Callable[[_Capture, Any], Any]:
    """The encoder for a type :data:`_ENCODERS` does not list yet."""
    tabled = _class_key(kind) in CLASSES
    if issubclass(kind, enum.Enum) and tabled:
        return _Capture._enum
    if issubclass(kind, tuple) and hasattr(kind, "_fields") and tabled:
        return _Capture._namedtuple
    if tabled:
        return _Capture._created_ref
    if dataclasses.is_dataclass(kind) and kind.__dataclass_params__.frozen:
        return _Capture._keep
    if not issubclass(kind, (tuple, enum.Enum)) and kind.__module__.startswith(
        "repro."
    ):
        return _Capture._object

    def refuse(_capture: _Capture, value: Any) -> Any:
        raise SnapshotError(
            f"cannot snapshot a {kind.__qualname__}: {value!r} (a value class "
            "belongs in repro.snapshot.codec.CLASSES)"
        )

    return refuse


_ENCODERS: Dict[type, Callable[[_Capture, Any], Any]] = {
    list: _Capture._list,
    dict: _Capture._dict,
    deque: _Capture._deque,
    set: _Capture._set,
    tuple: _Capture._tuple,
    BatchCursor: _Capture._cursor,
    types.MethodType: _Capture._method,
    functools.partial: _Capture._partial,
    types.FunctionType: _Capture._function,
}


def capture(machine) -> dict:
    """The state tree of ``machine``: layouts, the walk from the machine,
    the run-created objects and the request-id counter."""
    if machine.engine._running:
        raise SnapshotError("cannot snapshot the engine from inside an event callback")
    tree = _Capture().tree(machine)
    tree["request_globals"] = request_mod.capture_globals()
    return tree


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------
def _resolve(key, among=None) -> type:
    """A class of the running code by ``(module, qualname)`` — only
    ``repro`` modules already imported, and only ``among`` if given."""
    module, qualname = key
    found: Any = None
    if module.startswith("repro.") and (among is None or tuple(key) in among):
        found = sys.modules.get(module)
    for part in qualname.split("."):
        found = getattr(found, part, None)
    if not isinstance(found, type):
        raise SnapshotSchemaError(
            f"snapshot holds state of class {module}.{qualname}, which "
            "this build does not have"
        )
    return found


def _resolve_layouts(entries) -> List[Tuple[type, Tuple[str, ...]]]:
    """Each layout's class, checked against the slots it declares."""
    layouts = []
    for module, qualname, fields in entries:
        cls, fields = _resolve((module, qualname)), tuple(fields)
        if fields != _slot_names(cls):
            raise SnapshotSchemaError(
                f"snapshot layout of {qualname} is {list(fields)}, this build "
                f"has {list(_slot_names(cls))}"
            )
        layouts.append((cls, fields))
    return layouts


def _assign(obj: Any, values: Dict[str, Any]) -> None:
    for name, value in values.items():
        setattr(obj, name, value)


def _refill(target, items) -> None:  # dict, set, deque
    target.clear()
    (target.extend if type(target) is deque else target.update)(items)


def _replace(target, items) -> None:  # list
    target[:] = items


def _refill_each(sets, contents) -> None:  # a packed list of dicts
    for index, items in enumerate(contents):
        mapping = sets[index]
        if mapping is not None:
            _refill(mapping, items)
        elif items:  # an unbuilt set stays unbuilt until it has contents
            sets[index] = dict(items)


#: Tags of numbered nodes and the fresh type each binds to (``object``:
#: the node's layout class).
_NUMBERED: Dict[str, type] = {
    "o": object, "ds": list, "q": deque, "s": set, "x": BatchCursor,
}


def _key_value(node: Any) -> Any:
    """A dict key's value when it is plain data, else ``_ABSENT``."""
    if type(node) is not tuple:
        return node
    if node[0] != "t":
        return _ABSENT
    items = tuple(_key_value(x) for x in node[1])
    return _ABSENT if any(x is _ABSENT for x in items) else items


def _plain(nodes) -> bool:
    """Whether no key or item of an encoded container needs decoding."""
    items = chain(nodes, nodes.values()) if type(nodes) is dict else nodes
    return _NODES.isdisjoint(map(type, items))


class _Restore:
    """One restore: :meth:`bind`, then :meth:`decode`, then :meth:`apply`."""

    def __init__(self, tree: dict) -> None:
        self.layouts = _resolve_layouts(tree["layouts"])
        self.created_fields = tree["created"]
        self.numbers: Dict[int, int] = {}  # id(node) -> n
        self.nodes: List[Any] = []
        self.bound: Dict[int, Any] = {}  # n -> fresh object restored in place
        self.created_bound: Dict[int, Any] = {}
        self._claimed: set = set()
        self._walked: set = set()  # n walked while bound
        self.objects: Dict[int, Any] = {}
        self.created: List[Any] = [_ABSENT] * len(self.created_fields)
        self.writes: List[Tuple[Callable, Any, Any]] = []

    # -- pass 1: number every node as the capture did; bind it to the
    # fresh object at the same path, wherever the tree first offers one.
    def bind(self, root: Any, machine: Any) -> None:
        self._visit(root, machine)
        for index, (layout, values) in enumerate(self.created_fields):
            live = self.created_bound.get(index)
            self._visit_fields(self.layouts[layout][1], values, live)

    def _claim(self, live: Any, kind: type) -> bool:
        if type(live) is kind and id(live) not in self._claimed:
            self._claimed.add(id(live))
            return True
        return False

    def _visit(self, node: Any, live: Any) -> None:
        kind = type(node)
        if kind is not tuple:
            if kind is list or kind is dict:
                self._visit_numbered(node, live)
            return
        tag = node[0]
        if tag in _NUMBERED:
            self._visit_numbered(node, live)
        elif tag == "r":
            if node[1] not in self.bound:
                self._visit_numbered(self.nodes[node[1]], live)  # bound late
        elif tag == "n":
            index = node[1]
            cls = self.layouts[self.created_fields[index][0]][0]
            if index not in self.created_bound and self._claim(live, cls):
                self.created_bound[index] = live
        elif tag == "t":
            self._visit_items(node[1], live if type(live) is tuple else None)
        elif tag == "nt":
            self._visit_items(node[2], None)
        elif tag == "m":
            # The receiver binds where the fresh machine holds the same
            # method: an object reached only through one binds in place.
            receiver = live.__self__ if type(live) is types.MethodType else _ABSENT
            self._visit(node[1], receiver)
        elif tag == "p":
            self._visit(node[1], _ABSENT)
            self._visit_items(node[2], None)
            self._visit_items(list(node[3].values()), None)

    def _visit_numbered(self, node: Any, live: Any) -> None:
        """Number ``node`` on first sight, bind it to ``live`` if that
        fits, and walk its children once unbound and once bound."""
        n = self.numbers.get(id(node))
        first = n is None
        if first:
            n = self.numbers[id(node)] = len(self.nodes)
            self.nodes.append(node)
        tag = node[0] if type(node) is tuple else None
        if n not in self.bound:
            kind = _NUMBERED[tag] if tag else type(node)
            if kind is object:
                kind = self.layouts[node[1]][0]
            if self._claim(live, kind):
                self.bound[n] = live
        obj = self.bound.get(n)
        if obj is None and not first or obj is not None and n in self._walked:
            return
        if obj is not None:
            self._walked.add(n)
        if tag is None:
            (self._visit_items if type(node) is list else self._visit_map)(node, obj)
        elif tag == "o":
            self._visit_fields(self.layouts[node[1]][1], node[2], obj)
        elif tag in ("q", "s"):
            self._visit_items(node[1], obj if tag == "q" else None)

    def _visit_items(self, nodes, live) -> None:
        if _plain(nodes):
            return
        count = 0 if live is None else len(live)
        for i, x in enumerate(nodes):
            if type(x) in _NODES:
                self._visit(x, live[i] if i < count else _ABSENT)

    def _visit_map(self, nodes: dict, live) -> None:
        if _plain(nodes):
            return
        for key, value in nodes.items():
            self._visit(key, _ABSENT)
            if type(value) in _NODES:
                key = _ABSENT if live is None else _key_value(key)
                live_value = _ABSENT if key is _ABSENT else live.get(key, _ABSENT)
                self._visit(value, live_value)

    def _visit_fields(self, fields, values: list, obj: Any) -> None:
        for name, value in zip(fields, values):
            if type(value) in _NODES:
                live = _ABSENT if obj is None else getattr(obj, name, _ABSENT)
                self._visit(value, live)

    # -- pass 2: decode; writes to fresh objects are only collected ------
    def decode(self, root: Any) -> None:
        self.dec(root)
        for index, (layout, values) in enumerate(self.created_fields):
            obj = self.created[index]
            if obj is _ABSENT:
                raise SnapshotFormatError(f"created object {index} is never referenced")
            self._fill(obj, self.layouts[layout], values, index in self.created_bound)

    def apply(self) -> None:
        for write, target, items in self.writes:
            write(target, items)

    def dec(self, node: Any) -> Any:
        kind = type(node)
        if kind is list:
            target, fresh = self._target(node, list)
            return self._put(_replace, target, fresh, self._items(node))
        if kind is dict:
            target, fresh = self._target(node, dict)
            return self._put(_refill, target, fresh, self._map(node))
        if kind is not tuple:
            return node
        return _DECODERS[node[0]](self, node)

    def _target(self, node: Any, new: Callable[[], Any]) -> Tuple[Any, bool]:
        """The object node ``n`` decodes to: the bound fresh one, else new."""
        n = self.numbers[id(node)]
        target = self.bound.get(n)
        fresh = target is not None
        if not fresh:
            target = new()
        self.objects[n] = target
        return target, fresh

    def _put(self, write: Callable, target: Any, fresh: bool, items: Any) -> Any:
        if fresh:
            self.writes.append((write, target, items))
        else:
            write(target, items)
        return target

    def _items(self, nodes) -> list:
        if _plain(nodes):
            return nodes
        dec = self.dec
        return [x if type(x) not in _NODES else dec(x) for x in nodes]

    def _map(self, nodes: dict) -> dict:
        if _plain(nodes):
            return nodes
        dec = self.dec
        return {
            (k if type(k) is not tuple else dec(k)): (
                v if type(v) not in _NODES else dec(v)
            )
            for k, v in nodes.items()
        }

    def _fill(self, obj: Any, layout, values: list, fresh: bool) -> None:
        cls, fields = layout
        if len(values) != len(fields):
            raise SnapshotFormatError(
                f"{cls.__qualname__} state has {len(values)} values for "
                f"{len(fields)} fields"
            )
        decoded = {}
        for name, value in zip(fields, values):
            if type(value) in _NODES:
                if value == _KEEP and fresh:
                    value = getattr(obj, name)
                else:
                    value = self.dec(value)
            decoded[name] = value
        self._put(_assign, obj, fresh, decoded)

    @staticmethod
    def _new(cls: type) -> Any:
        if _class_key(cls) not in CLASSES:
            raise SnapshotError(
                f"snapshot holds a {cls.__qualname__} the fresh machine does "
                "not have at any path; the machines do not match"
            )
        return cls.__new__(cls)

    # -- per-tag decoders ------------------------------------------------
    def _object(self, node: tuple) -> Any:
        layout = self.layouts[node[1]]
        obj, fresh = self._target(node, lambda: self._new(layout[0]))
        self._fill(obj, layout, node[2], fresh)
        return obj

    def _created_ref(self, node: tuple) -> Any:
        index = node[1]
        obj = self.created[index]
        if obj is _ABSENT:
            obj = self.created_bound.get(index)
            if obj is None:
                obj = self._new(self.layouts[self.created_fields[index][0]][0])
            self.created[index] = obj
        return obj

    def _dict_list(self, node: tuple) -> Any:
        target, fresh = self._target(node, list)
        _, lengths, keys, values = node
        pairs = zip(keys, values)
        contents = [list(islice(pairs, length)) for length in lengths]
        if fresh and len(target) == len(lengths) and all(
            mapping is None or type(mapping) is dict for mapping in target
        ):
            # The fresh sets stay; only their contents are rewritten.
            self.writes.append((_refill_each, target, contents))
            return target
        return self._put(_replace, target, fresh, list(map(dict, contents)))

    def _deque(self, node: tuple) -> Any:
        _, nodes, maxlen = node
        new = functools.partial(deque, maxlen=maxlen)
        return self._put(_refill, *self._target(node, new), self._items(nodes))

    def _set(self, node: tuple) -> Any:
        return self._put(_refill, *self._target(node, set), self._items(node[1]))

    def _cursor(self, node: tuple) -> Any:
        def refuse():
            raise SnapshotError("snapshot holds a trace cursor the fresh machine lacks")

        cursor, fresh = self._target(node, refuse)
        return self._put(BatchCursor.restore_state, cursor, fresh, node[1])

    def _ref(self, node: tuple) -> Any:
        return self.objects[node[1]]

    def _tuple(self, node: tuple) -> Any:
        return tuple(self._items(node[1]))

    def _namedtuple(self, node: tuple) -> Any:
        return _resolve(node[1], CLASSES)(*self._items(node[2]))

    def _enum(self, node: tuple) -> Any:
        return _resolve(node[1], CLASSES)[node[2]]

    def _method(self, node: tuple) -> Any:
        # getattr, not the class function: wrappers validate.hooks
        # installed on the fresh machine are picked up.
        return getattr(self.dec(node[1]), node[2])

    def _partial(self, node: tuple) -> Any:
        _, func, args, keywords = node
        func, args = self.dec(func), self._items(args)
        keywords = {k: self.dec(v) for k, v in keywords.items()}
        return functools.partial(func, *args, **keywords)

    def _keep(self, node: tuple) -> Any:
        raise SnapshotError("snapshot keeps a value the fresh machine lacks")


_DECODERS: Dict[str, Callable[[_Restore, tuple], Any]] = {
    "o": _Restore._object, "r": _Restore._ref, "n": _Restore._created_ref,
    "ds": _Restore._dict_list, "q": _Restore._deque,
    "s": _Restore._set, "t": _Restore._tuple,
    "nt": _Restore._namedtuple, "e": _Restore._enum,
    "x": _Restore._cursor, "m": _Restore._method, "p": _Restore._partial,
    "k": _Restore._keep,
}


def restore(machine, tree: dict) -> None:
    """Rewrite a freshly built ``machine`` in place from :func:`capture`'s tree.

    The whole tree is bound, decoded and layout-checked before the first
    write, so a refused tree leaves the machine untouched.
    """
    try:
        walk = _Restore(tree)
        walk.bind(tree["root"], machine)
        walk.decode(tree["root"])
        request_globals = tree["request_globals"]
    except SnapshotError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise SnapshotFormatError(f"snapshot state tree is malformed: {exc!r}") from exc
    request_mod.restore_globals(request_globals)
    walk.apply()
