"""Lifting-property solver and the generating families.

A lift for a commuting square is a simplicial map h with h after the
left map equal to the top and the right map after h equal to the bottom.
Its levels satisfy a block linear system over F_p (chain-map equations,
operator compatibility, both boundary conditions), so existence is
decidable and every witness is exact.  The universal form quantifies
over all commuting squares at once by comparing the span of squares
with the image of h -> (h restricted, h projected).

Against a boxed generator f box i no square system is needed: by the
tensor/cotensor adjunction, f box i lifts against q iff the chain map f
lifts against the corner map X^L -> Y^L x_{Y^K} X^K of q along i (Hovey,
Model Categories, Lemma 4.2.2; Hirschhorn, Prop. 9.3.7), and for the chain
generators that is one closed-form rank condition.  Whether f lifts
depends on the corner only up to isomorphism, and for the generators'
simplicial parts the corner is read off the levels: X^{Delta^n} = X_n by
Yoneda, so along a coface d^j: Delta^{n-1} -> Delta^n it is
X_n -> Y_n x_{Y_{n-1}} X_{n-1} through the faces d_j, and along the
boundary inclusion it is the relative matching map
X_n -> Y_n x_{M_nY} M_nX (Hovey 5.2; Hirschhorn 15.3).
"""

from dataclasses import dataclass

from . import sobj as so
from . import ssets as ss
from .chain import (
    ChainMap,
    disk_from_zero,
    pullback,
    pullback_mediator,
    sphere_disk_inclusion,
)
from .classify import pushout_product, relative_matching
from .errors import InternalInvariantError, ValidationFailure
from .linalg import check_system_cap, hstack, vstack, zeros
from .sobj import SimplicialMap
from .system import BlockSystem


@dataclass(frozen=True)
class LiftingProblem:
    """Commuting square: p after top equals bottom after i."""

    i: SimplicialMap
    p: SimplicialMap
    top: SimplicialMap
    bottom: SimplicialMap


def validate_problem(pr: LiftingProblem):
    n_levels = pr.i.source.N + 1
    for smap in (pr.i, pr.p, pr.top, pr.bottom):
        if smap.source.N + 1 != n_levels:
            raise ValidationFailure("lifting square truncations differ")
    for n in range(n_levels):
        left = pr.p.level(n) @ pr.top.level(n)
        right = pr.bottom.level(n) @ pr.i.level(n)
        if left != right:
            raise ValidationFailure(f"lifting square does not commute at level {n}")


def rlp(problem: LiftingProblem, cap: int | None = None):
    """(exists, witness): solve for a diagonal filler of the square.

    The witness, when present, is re-substituted into the square before
    being returned.
    """
    validate_problem(problem)
    a, b = problem.i.source, problem.i.target
    x, y = problem.p.source, problem.p.target
    sys = so.smap_system(b, x, cap)
    for n in range(b.N + 1):
        i_n, top_n = problem.i.level(n), problem.top.level(n)
        p_n, bottom_n = problem.p.level(n), problem.bottom.level(n)
        for t in a.level(n).degrees():
            sys.add_equation(
                (x.level(n).dim(t), a.level(n).dim(t)),
                [((n, t), None, i_n.block(t), 1)],
                rhs=top_n.block(t),
            )
        for t in b.level(n).degrees():
            sys.add_equation(
                (y.level(n).dim(t), b.level(n).dim(t)),
                [((n, t), p_n.block(t), None, 1)],
                rhs=bottom_n.block(t),
            )
    sol = sys.solve()
    if sol is None:
        return False, None
    h = so.smap_from_blocks(b, x, sol)
    so.validate_smap(h)
    for n in range(b.N + 1):
        if (h.level(n) @ problem.i.level(n)) != problem.top.level(n):
            raise InternalInvariantError(f"witness fails the top condition at level {n}")
        if (problem.p.level(n) @ h.level(n)) != problem.bottom.level(n):
            raise InternalInvariantError(
                f"witness fails the bottom condition at level {n}"
            )
    return True, h


def rlp_against_disk(c: ChainMap, m: int, cap: int | None = None) -> bool:
    """Whether every square from 0 -> D^m to c has a lift: a square is a
    b in B_m and a lift an a in A_m with c a = b, so iff c_m is onto."""
    check_system_cap(c.target.dim(m), c.source.dim(m), cap)
    return c.block(m).rank() == c.target.dim(m)


def rlp_against_sphere_disk(c: ChainMap, m: int, cap: int | None = None) -> bool:
    """Whether every square from S^{m-1} -> D^m to c: A -> B has a lift.

    A square is a pair (a, b) in V = {a in A_{m-1}, b in B_m : d a = 0,
    d b = c a}, and a lift is an a' in A_m with (d a', c a') = (a, b); the
    map a' -> (d a', c a') always lands in V, so every square lifts iff
    its rank is dim V.
    """
    a, b = c.source, c.target
    check_system_cap(a.dim(m - 1) + b.dim(m), a.dim(m), cap)
    check_system_cap(a.dim(m - 2) + b.dim(m - 1), a.dim(m - 1) + b.dim(m), cap)
    lift = vstack([a.d(m), c.block(m)])
    squares = vstack(
        [
            hstack([a.d(m - 1), zeros(c.p, a.dim(m - 2), b.dim(m))]),
            hstack([c.block(m - 1), -b.d(m)]),
        ]
    )
    return lift.rank() == squares.cols - squares.rank()


def _square_system(g: SimplicialMap, q: SimplicialMap, cap: int | None) -> BlockSystem:
    """System whose kernel is the space of commuting squares (u, v) with
    u: source(g) -> source(q) on top and v: target(g) -> target(q) below."""
    a, b = g.source, g.target
    x, y = q.source, q.target
    sys = BlockSystem(a.p, cap)
    so.add_smaps(sys, ("u",), a, x)
    so.add_smaps(sys, ("v",), b, y)
    # q after u agrees with v after g
    for n in range(a.N + 1):
        for t in a.level(n).degrees():
            sys.add_equation(
                (y.level(n).dim(t), a.level(n).dim(t)),
                [
                    (("u", n, t), q.level(n).block(t), None, 1),
                    (("v", n, t), None, g.level(n).block(t), -1),
                ],
            )
    return sys


def has_universal_rlp(g: SimplicialMap, q: SimplicialMap, cap: int | None = None) -> bool:
    """Decide whether every commuting square from g to q has a lift: the
    span of commuting squares must lie in the image of h -> (h g, q h)."""
    sq_sys = _square_system(g, q, cap)
    if sq_sys.ambient_dim == 0:
        return True
    squares = sq_sys.kernel()
    if squares.cols == 0:
        return True
    hom, hom_sys = so.smap_space(g.target, q.source, cap)
    cols = [zeros(g.p, sq_sys.ambient_dim, 0)]
    for j in range(hom.cols):
        blocks = {}
        for (n, t), h in hom_sys.blocks_from_vector(hom.column(j)).items():
            blocks[("u", n, t)] = h @ g.level(n).block(t)
            blocks[("v", n, t)] = q.level(n).block(t) @ h
        cols.append(sq_sys.vector_from_blocks(blocks))
    image = hstack(cols)
    return hstack([image, squares]).rank() == image.rank()


@dataclass(frozen=True)
class Generator:
    """One boxed generator with its provenance."""

    label: str
    map: SimplicialMap
    chain_part: str
    sset_part: str
    weq: bool | None


@dataclass(frozen=True)
class GeneratorFamily:
    family: str
    window: tuple[int, int]
    n_range: tuple[int, int]
    members: tuple[Generator, ...]


FAMILIES = ("I", "J'", "J''")

# chain generator of each family: its name, the map in degree m, and the
# closed form deciding whether a corner map lifts against it
_CHAIN_PARTS = {
    "I": ("sphere-disk", sphere_disk_inclusion, rlp_against_sphere_disk),
    "J'": ("disk", disk_from_zero, rlp_against_disk),
    "J''": ("sphere-disk", sphere_disk_inclusion, rlp_against_sphere_disk),
}


def _members(
    family: str, window: tuple[int, int], n_range: tuple[int, int]
) -> list[tuple[str, int, str, int, int | None]]:
    """(label, m, sset part, n, j) for every member of a family, in order:
    the chain generator in degree m boxed with the boundary inclusion of
    the n-simplex (I and J', j None) or with the coface d^j into it (J'')."""
    if family not in FAMILIES:
        raise ValueError(f"unknown generator family {family!r}")
    lo, hi = window
    nlo, nhi = n_range
    if lo > hi or nlo > nhi:
        raise ValueError("empty generator range")
    out = []
    for m in range(lo, hi + 1):
        if family in ("I", "J'"):
            for n in range(max(0, nlo), nhi + 1):
                out.append((f"{family}[m={m},n={n}]", m, f"boundary:{n}", n, None))
        else:
            for n in range(max(1, nlo), nhi + 1):
                for j in range(n + 1):
                    out.append((f"{family}[m={m},n={n},face={j}]", m, f"coface:{n}:{j}", n, j))
    return out


def generators(
    family: str, p: int, N: int, window: tuple[int, int], n_range: tuple[int, int]
) -> GeneratorFamily:
    """Boxed generating families over a degree window and simplex range.

    I boxes the sphere-disk inclusions with boundary inclusions, J' the
    disk coevaluations with boundary inclusions, J'' the sphere-disk
    inclusions with the elementary coface maps.
    """
    members = _members(family, window, n_range)
    name, chain_gen, _ = _CHAIN_PARTS[family]
    boxed = []
    for label, m, part, n, j in members:
        if j is None:
            i = ss.boundary_inclusion(N, n)
        else:
            i = ss.delta_map(N, ss.operator_tuple(n, n - 1, j), n)
        box = pushout_product(chain_gen(p, m), i)
        boxed.append(Generator(label, box, f"{name}:{m}", part, i.weq))
    return GeneratorFamily(family, tuple(window), tuple(n_range), tuple(boxed))


def corner_map(q: SimplicialMap, n: int, j: int | None = None) -> ChainMap:
    """The corner map of q: X -> Y along the boundary inclusion of the
    n-simplex (j None) or along the coface d^j: Delta^{n-1} -> Delta^n, up
    to isomorphism and read off the levels.  X^{Delta^n} = X_n by Yoneda and
    X^{boundary} = M_nX, so the boundary corner is the relative matching
    map X_n -> Y_n x_{M_nY} M_nX, and the coface corner is
    X_n -> Y_n x_{Y_{n-1}} X_{n-1} with legs q_n and d_j."""
    if j is None:
        return relative_matching(q, n).map
    x, y = q.source, q.target
    span = pullback(y.face(n, j), q.level(n - 1))
    return pullback_mediator(span, q.level(n), x.face(n, j))


def generator_rlp(
    q: SimplicialMap,
    families,
    window: tuple[int, int],
    n_range: tuple[int, int],
    cap: int | None = None,
) -> list[tuple[str, bool]]:
    """(label, verdict) for every member f box i of the families, in the
    order ``generators`` lists them: whether f box i has the universal RLP
    against q, the question ``has_universal_rlp(f box i, q)`` answers.

    f box i lifts against q iff f lifts against the corner map of q along
    i (Hovey 4.2.2), which ``rlp_against_disk`` or
    ``rlp_against_sphere_disk`` decides; both see the corner only up to
    isomorphism.  ``corner_map`` reads it off the levels and matching
    objects (Yoneda, X^{Delta^n} = X_n), once per simplicial part, so no
    box, square system or cotensor is built.  The simplices must lie
    within the truncation, where that identification holds.  ``cap`` bounds
    every matrix of the closed forms; a larger one raises ResourceCapError.
    """
    N = q.source.N
    corners = {}
    out = []
    for family in families:
        members = _members(family, window, n_range)
        if n_range[1] > N:
            raise ValueError(f"simplex range {tuple(n_range)} exceeds the truncation N={N}")
        decide = _CHAIN_PARTS[family][2]
        for label, m, part, n, j in members:
            if part not in corners:
                corners[part] = corner_map(q, n, j)
            out.append((label, decide(corners[part], m, cap)))
    return out
