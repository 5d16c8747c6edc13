"""Parameter arithmetic, base-block files, the Geometry container and its
incidence index.

A pentagonal geometry PENT(k,r,w) is a partial linear space with k points on
every line and r lines through every point, in which the points not collinear
with any point x form a Steiner system S(2,k,w) whose blocks are lines.  This
module knows the counting identities and the on-disk formats, and builds the
per-point masks every analysis reads; the axioms themselves are checked in
pentgeo.pent.

Step rule: a Geometry is (params, step, orbits).  x -> x + step (mod v),
the step dividing v, maps its lines to lines, and orbits holds one line per
orbit of that map, its least translate by a multiple of the step.
develop() gives the development step d of its base blocks, geometry() gives
step = v, the identity, where every line is its own orbit.  The points
0..step-1 represent the point orbits: each orbit line, its mask rotated,
passes through the representatives of its points, so the incidence index
is built from the orbits alone, and its deficiency graph is a graphs.Graph
of the same step.  reps, the lines through 0..step-1, and the full line set
are derived when first read; Geometry.line_stream moves reps to every line
in sorted order.  Equality, hashing, repr and JSON ignore the step and read
all lines.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import UsageError
from .graphs import MAX_VERTICES, Graph, data_lines

# A line is a sorted, duplicate-free tuple of point identifiers.
Line = tuple[int, ...]


def canonical_line(points: Iterable[int]) -> Line:
    line = tuple(sorted(points))
    if len(set(line)) != len(line):
        raise UsageError(f"repeated point in line {line}")
    return line


@dataclass(frozen=True)
class PentParams:
    """Admissible-shape parameters with the derived point and line counts."""

    k: int
    r: int
    w: int
    v: int
    b: int


def derive_params(k: int, r: int, w: int) -> PentParams:
    """Derive v and b from (k, r, w).

    v = (k-1)r + w + 1 counts points: r lines through a fixed point carry
    (k-1)r other points, and w points are left over for the opposite design.
    b counts lines by double counting point-line flags.  As v = w + 1 - r
    (mod k), k divides v*r exactly when (k, r, w) is admissible.
    """
    v = (k - 1) * r + w + 1
    if not is_admissible(k, r, w):
        raise UsageError(f"k = {k} does not divide v*r = {v * r}")
    return PentParams(k=k, r=r, w=w, v=v, b=v * r // k)


def is_admissible(k: int, r: int, w: int) -> bool:
    """Necessary congruence r(w + 1 - r) = 0 (mod k) for PENT(k,r,w)."""
    if k < 3:
        raise UsageError(f"k = {k} < 3")
    if w < k:
        raise UsageError(f"w = {w} < k = {k}")
    if r < 1:
        raise UsageError(f"r = {r} < 1")
    return (r * (w + 1 - r)) % k == 0


@dataclass(frozen=True, eq=False, repr=False)
class Geometry:
    """A point set 0..v-1 with canonical lines, kept as orbits, one line per
    orbit of x -> x + step (mod v), from which the step develops the rest.

    The constructor takes canonical lines (sorted tuples, as
    canonical_line, geometry() and develop() give them) and does not sort
    them again.  It refuses a step that does not divide v and, below v,
    replaces each given line by its least translate by a multiple of the
    step, so a repeated line, or two lines of one orbit, give one entry and
    the step is an automorphism of lines.  At step = v every line is its
    own orbit and orbits is the given set.  The period of an orbit is the
    least positive multiple of the step whose shift fixes its lines: v,
    unless the orbit is short, when short maps its line to the period.  An
    orbit of period p has p/step lines, one through a representative for
    each of its points below p.  reps, the lines through 0..step-1, and
    lines, all of them, are built from the orbits when first read; the
    analyses of a valid geometry read neither.  A frozenset makes
    duplicate lines impossible; nothing here promises that the axioms
    hold, and |lines| equals params.b exactly when the geometry is
    complete.  The incidence index (v*v/8 bytes of masks) is built on first
    use and kept with this object, so every analysis of it shares one
    build; an equal geometry built separately builds its own.
    """

    params: PentParams
    step: int
    orbits: frozenset[Line]
    short: dict[Line, int] = field(init=False)

    def __post_init__(self):
        v, step = self.params.v, self.step
        if step < 1 or v % step:
            raise UsageError(f"d = {step} does not divide v = {v}")
        orbits, short = self.orbits, {}
        if step < v:
            orbits = set()
            for ln in self.orbits:
                least, fixed = _least_translate(ln, step, v)
                if fixed:  # an empty line has no translate below the step
                    orbits.add(least)
                if fixed > 1:
                    short[least] = v // fixed
        object.__setattr__(self, "orbits", frozenset(orbits))
        object.__setattr__(self, "short", short)

    def __eq__(self, other):
        return type(other) is Geometry and (self.params, self.lines) == (other.params, other.lines)

    def __hash__(self):
        return hash((self.params, self.lines))

    def __repr__(self):
        return f"Geometry(params={self.params!r}, lines={self.lines!r})"

    @property
    def v(self) -> int:
        return self.params.v

    @cached_property
    def reps(self) -> frozenset[Line]:
        return _translates(self.orbits, self.step, self.v)

    @cached_property
    def lines(self) -> frozenset[Line]:
        return self.orbits if self.step == self.v else frozenset(self.line_stream())

    def lines_sorted(self) -> list[Line]:
        return list(self.line_stream())

    def line_stream(self) -> Iterator[Line]:
        """Every line once, in sorted order, window by window: a line whose
        least point lies in window q is a representative R moved by
        t = q*step with no point wrapping, so window q yields R + t for each
        sorted R with R[-1] + t < v.  An R that wraps wraps later too."""
        v, live = self.v, sorted(self.reps)
        yield from live
        for t in range(self.step, v, self.step):
            live = [rep for rep in live if rep[-1] + t < v]
            yield from (tuple([x + t for x in rep]) for rep in live)

    def spread(self, lines: Iterable[Line]) -> tuple[list[int], list[int]]:
        """For orbit lines (all or some of orbits), per representative x:
        how many lines of their orbits pass through x, and the OR of those
        lines' masks.  For each point p of an orbit line below its period,
        the line moved back by t = p - p % step passes through x = p % step,
        its mask the orbit line's rotated by -t.  A point below the step
        has t = 0, so step = v rotates nothing."""
        v, step, short = self.v, self.step, self.short
        full = (1 << v) - 1
        counts, masks = [0] * step, [0] * step
        for ln in lines:
            m = 0
            for p in ln:
                m |= 1 << p
            period = short.get(ln, v) if short else v
            for p in ln:
                if p < step:
                    counts[p] += 1
                    masks[p] |= m
                elif p < period:
                    x = p % step
                    t = p - x
                    counts[x] += 1
                    masks[x] |= (m >> t | m << v - t) & full
                else:
                    break
        return counts, masks

    @cached_property
    def incidence(self) -> Incidence:
        return Incidence(self)


def _least_translate(ln: Line, step: int, v: int) -> tuple[Line, int]:
    """The least translate of a sorted line by a multiple of the step, and
    how many shifts by such multiples fix the line (0 for an empty line).
    Only the points of least residue mod step can move to the least point,
    so only they are tried; unless the step is small there is usually
    one.  Each is the first point of its window, so its translate is
    sorted as made."""
    res = [x % step for x in ln]
    low = min(res, default=0)
    if res.count(low) == 1:
        i = res.index(low)
        t = ln[i] - low
        return tuple([(y - t) % v for y in ln[i:] + ln[:i]]), 1
    moved = [
        tuple([(y - x + low) % v for y in ln[i:] + ln[:i]])
        for i, x in enumerate(ln)
        if res[i] == low
    ]
    least = min(moved, default=ln)
    return least, moved.count(least)


def _translates(orbits: frozenset[Line], step: int, v: int) -> frozenset[Line]:
    """The lines through 0..step-1, the orbits themselves at step = v.
    Below v, each orbit line is moved back by t = x - x % step for its
    points x, one translate per window of the step it meets.  The points
    from the first one in the window on come first, then those below it
    wrapped past v, so each translate is sorted as made."""
    if step == v:
        return orbits
    out = []
    for ln in orbits:
        t = -1
        for i, x in enumerate(ln):
            if x - x % step != t:
                t = x - x % step
                out.append(tuple([(y - t) % v for y in ln[i:] + ln[:i]]))
    return frozenset(out)


class Incidence:
    """The index of a geometry whose lines lie in 0..v-1, as geometry() and
    develop() make them, built in one pass over its orbit lines
    (Geometry.spread): per representative x in 0..step-1 its degree, and
    the deficiency graph, whose mask N[x] (a Python int, bit y for point y)
    holds the points on no line with x.  More than MAX_VERTICES points are
    refused before any mask is allocated, so the masks take at most
    v*v/8 bytes = 32 MiB.  through, the lines through each representative,
    which only witness searches read, is listed on the first call of
    lines_through."""

    def __init__(self, geom: Geometry):
        v, step = geom.v, geom.step
        if v > MAX_VERTICES:
            raise UsageError(f"v = {v} > {MAX_VERTICES} points")
        degree, masks = geom.spread(geom.orbits)
        full = (1 << v) - 1
        for x in range(step):  # x's collinear points, x among them, become N[x] in place
            masks[x] = (masks[x] | 1 << x) ^ full
        self._orbits = geom.orbits
        self.degree = tuple(degree) * (v // step)
        self.deficiency = Graph(v, masks)

    @cached_property
    def through(self) -> list[list[Line]]:
        """Per representative x, the lines through it."""
        v, step = self.deficiency.n, self.deficiency.step
        through: list[list[Line]] = [[] for _ in range(step)]
        for ln in _translates(self._orbits, step, v):
            for x in ln:  # the representatives on ln, a prefix as ln is sorted
                if x >= step:
                    break
                through[x].append(ln)
        return through

    def lines_through(self, p: int) -> list[Line]:
        """The lines through p, sorted: those through p % step, moved by
        p - p % step."""
        g = self.deficiency
        t, lines = p - p % g.step, self.through[p % g.step]
        return sorted(tuple(sorted([(y + t) % g.n for y in ln])) if t else ln for ln in lines)


def geometry(params: PentParams, lines: Iterable[Iterable[int]]) -> Geometry:
    """The geometry on the canonical forms of lines, refused when a line
    repeats a point or has one outside 0..v-1.  The refusal names the first
    such line in input order, repeated points before points out of range."""
    canon = list(map(tuple, map(sorted, lines)))
    # Whole-list checks; the loops below run only to name the bad line.
    ends = list(filter(None, canon))
    if sum(map(len, map(set, canon))) != sum(map(len, canon)) or ends and (
        min(map(itemgetter(0), ends)) < 0 or max(map(itemgetter(-1), ends)) >= params.v
    ):
        for ln in canon:
            canonical_line(ln)
        for ln in canon:
            for x in ln:
                if not 0 <= x < params.v:
                    raise UsageError(f"point {x} outside 0..{params.v - 1}")
    return Geometry(params, params.v, canon)


@dataclass(frozen=True)
class BaseBlockFile:
    """Parsed .pent file: parameters, development step d and raw base blocks.

    Blocks are kept exactly as written so parse/write round-trips are stable;
    develop() canonicalizes.  Each has exactly k entries.  The block count is
    not constrained: listings with short orbits supply more than (d*r)/k base
    blocks.
    """

    k: int
    r: int
    w: int
    d: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        params = derive_params(self.k, self.r, self.w)
        if self.d < 1:
            raise UsageError(f"d = {self.d} < 1")
        for blk in self.blocks:
            if len(blk) != self.k:
                raise UsageError(f"block has {len(blk)} entries, expected {self.k}")
            for x in blk:
                if not 0 <= x < params.v:
                    raise UsageError(f"point {x} outside 0..{params.v - 1}")

    @property
    def params(self) -> PentParams:
        return derive_params(self.k, self.r, self.w)


def parse_pent_file(text: str) -> BaseBlockFile:
    """Parse the .pent exchange format.

    Lines starting with '#' are comments; blank lines are ignored.  The first
    data line is 'k r w d'; every further data line is one base block of
    exactly k point identifiers.  A trailing newline is required.
    """
    if not text.endswith("\n"):
        raise UsageError("missing trailing newline")
    header: tuple[int, ...] | None = None
    blocks: list[tuple[int, ...]] = []
    for line_no, values in data_lines(text):
        if header is None:
            if len(values) != 4:
                raise UsageError(f"line {line_no}: header must be 'k r w d'")
            header = values
        elif len(values) != (k := header[0]):
            raise UsageError(f"line {line_no}: block has {len(values)} entries, expected {k}")
        else:
            blocks.append(values)
    if header is None:
        raise UsageError("no header line")
    if not blocks:
        raise UsageError("no base blocks")
    return BaseBlockFile(k=header[0], r=header[1], w=header[2], d=header[3], blocks=tuple(blocks))


def write_pent_file(file: BaseBlockFile) -> str:
    lines = ["%d %d %d %d" % (file.k, file.r, file.w, file.d)]
    lines.extend(" ".join(str(x) for x in blk) for blk in file.blocks)
    return "\n".join(lines) + "\n"


def develop(file: BaseBlockFile) -> Geometry:
    """Close the base blocks under x -> x+d (mod v) and deduplicate.

    The geometry has step d, so it keeps one line per orbit, at most one
    per block, and all that verify and the other analyses of a valid
    geometry read.  A base block stands for up to v/d lines (fewer for a
    short orbit), so a file can ask for much more than its own size: one
    block with d = 1 at r = 10^5 stands for 200,004 lines, which only JSON
    output and equality build.
    """
    # Shifts of a duplicate-free block stay duplicate-free: only blocks are checked.
    return Geometry(file.params, file.d, map(canonical_line, file.blocks))


def geometry_to_json(geom: Geometry, provenance: dict | None = None) -> str:
    payload = {
        "k": geom.params.k,
        "r": geom.params.r,
        "w": geom.params.w,
        "v": geom.params.v,
        "lines": [list(ln) for ln in geom.lines_sorted()],
    }
    if provenance is not None:
        payload["provenance"] = provenance
    return json.dumps(payload, indent=None, separators=(",", ":")) + "\n"


def _decode_json(text: str):
    """json.loads, refusing malformed text, too many digits or deep nesting."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError among them
        raise UsageError(f"bad JSON: {exc}") from None
    except RecursionError:
        raise UsageError("bad JSON: nested too deeply") from None


def _json_int(value, field: str) -> int:
    if type(value) is not int:
        raise UsageError(f"{field} must be an integer, got {value!r}")
    return value


def geometry_from_json(text: str) -> Geometry:
    """Load geometry JSON, checking every type before any arithmetic runs.

    k, r and w must be integers, lines a list of integer lists, and v, when
    present, the point count that (k, r, w) give."""
    payload = _decode_json(text)
    if type(payload) is not dict:
        raise UsageError("geometry JSON must be an object")
    missing = [field for field in ("k", "r", "w", "lines") if field not in payload]
    if missing:
        raise UsageError(f"missing field {missing[0]!r}")
    params = derive_params(*(_json_int(payload[field], field) for field in "krw"))
    if "v" in payload and _json_int(payload["v"], "v") != params.v:
        raise UsageError(f"v = {payload['v']} but (k,r,w) give v = {params.v}")
    lines = payload["lines"]
    if type(lines) is not list or set(map(type, lines)) - {list}:
        raise UsageError("lines must be a list of point lists")
    if set(map(type, chain.from_iterable(lines))) - {int}:
        raise UsageError("line entries must be integers")
    return geometry(params, lines)
