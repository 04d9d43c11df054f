"""Lifting-property solver and the generating families.

A lift for a commuting square is a simplicial map h with h after the
left map equal to the top and the right map after h equal to the bottom.
Its levels satisfy a block linear system over F_p (chain-map equations,
operator compatibility, both boundary conditions), so existence is
decidable and every witness is exact.  The universal form quantifies
over all commuting squares at once by comparing the span of squares
with the image of h -> (h restricted, h projected).
"""

from dataclasses import dataclass

from . import sobj as so
from . import ssets as ss
from .chain import disk_from_zero, sphere_disk_inclusion
from .errors import InternalInvariantError, ValidationFailure
from .linalg import hstack, zeros
from .realize import coface_tuple
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


def generators(
    family: str, p: int, N: int, window: tuple[int, int], n_range: tuple[int, int]
) -> GeneratorFamily:
    """Boxed generating families over a degree window and simplex range.

    I boxes the sphere-disk inclusions with boundary inclusions, J' the
    disk coevaluations with boundary inclusions, J'' the sphere-disk
    inclusions with the elementary coface maps.
    """
    from .classify import pushout_product

    if family not in FAMILIES:
        raise ValueError(f"unknown generator family {family!r}")
    lo, hi = window
    nlo, nhi = n_range
    if lo > hi or nlo > nhi:
        raise ValueError("empty generator range")
    members = []
    for m in range(lo, hi + 1):
        if family == "J'":
            f = disk_from_zero(p, m)
            chain_part = f"disk:{m}"
        else:
            f = sphere_disk_inclusion(p, m)
            chain_part = f"sphere-disk:{m}"
        if family in ("I", "J'"):
            for n in range(max(0, nlo), nhi + 1):
                i = ss.boundary_inclusion(N, n)
                members.append(
                    Generator(
                        f"{family}[m={m},n={n}]",
                        pushout_product(f, i),
                        chain_part,
                        f"boundary:{n}",
                        i.weq,
                    )
                )
        else:
            for n in range(max(1, nlo), nhi + 1):
                for j in range(n + 1):
                    i = ss.delta_map(N, coface_tuple(n, j), n)
                    members.append(
                        Generator(
                            f"{family}[m={m},n={n},face={j}]",
                            pushout_product(f, i),
                            chain_part,
                            f"coface:{n}:{j}",
                            i.weq,
                        )
                    )
    return GeneratorFamily(family, (lo, hi), (nlo, nhi), tuple(members))
